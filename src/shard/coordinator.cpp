#include "shard/coordinator.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/span.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/wire.h"
#include "synth/opamp_design.h"
#include "util/fingerprint.h"
#include "util/text.h"

namespace oasys::shard {

namespace {

// Parent-held pipe ends must not leak into later-spawned workers: a sibling
// holding the write end of a crashed worker's stdout would keep the
// coordinator's read from ever seeing EOF, turning a dead worker into a
// hang.  CLOEXEC closes them at the sibling's exec.
void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

// dup2 with EINTR retry; < 0 on any other failure (EMFILE and friends).
int dup2_retry(int oldfd, int newfd) {
  int rc;
  do {
    rc = ::dup2(oldfd, newfd);
  } while (rc < 0 && errno == EINTR);
  return rc;
}

// Child-side exit note: async-signal-safe (write(2) only), since we are
// between fork and exec in a possibly multi-threaded parent's child.
void child_die(const char* msg) {
  const ssize_t ignored = ::write(STDERR_FILENO, msg, std::strlen(msg));
  (void)ignored;
  std::_Exit(127);
}

}  // namespace

SpawnedWorker spawn_worker_process(const std::string& command,
                                   bool session) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0) {
    throw std::runtime_error("shard: pipe() failed");
  }
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("shard: pipe() failed");
  }
  set_cloexec(to_child[1]);
  set_cloexec(from_child[0]);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw std::runtime_error("shard: fork() failed");
  }
  if (pid == 0) {
    // Child: wire the conversation onto stdin/stdout and become a worker.
    // stderr stays inherited so worker diagnostics reach the operator.
    // A failed dup2 (EMFILE, ...) must not exec with mis-wired stdio —
    // the frame protocol would desync on whatever fd 0/1 happened to be.
    if (dup2_retry(to_child[0], STDIN_FILENO) < 0 ||
        dup2_retry(from_child[1], STDOUT_FILENO) < 0) {
      child_die("oasys shard: dup2 failed wiring worker stdio\n");
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    if (session) {
      ::execl(command.c_str(), command.c_str(), "shard-worker",
              "--session", static_cast<char*>(nullptr));
    } else {
      ::execl(command.c_str(), command.c_str(), "shard-worker",
              static_cast<char*>(nullptr));
    }
    child_die("oasys shard: exec of worker command failed\n");
  }

  SpawnedWorker p;
  p.pid = pid;
  p.to_fd = to_child[1];
  p.from_fd = from_child[0];
  ::close(to_child[0]);
  ::close(from_child[1]);
  return p;
}

bool ShardReport::infra_ok() const {
  for (const WorkerSummary& w : workers) {
    if (!w.ok()) return false;
  }
  return true;
}

std::size_t route(const std::string& request_key, std::size_t workers) {
  return util::shard_index(util::fnv1a64(request_key), workers);
}

ShardReport run_sharded_requests(const tech::Technology& tech,
                                 const synth::SynthOptions& synth_opts,
                                 const std::vector<yield::Request>& requests,
                                 const ShardOptions& options) {
  if (options.workers == 0) {
    throw std::invalid_argument("shard: workers must be >= 1");
  }
  if (options.worker_command.empty()) {
    throw std::invalid_argument("shard: worker_command must be set");
  }
  OBS_SPAN("shard/run_sharded_batch");
  // Scoped over the whole run, loop thread included: the embedding
  // application's handler is restored only after that thread is joined.
  const ScopedSigpipeIgnore sigpipe_guard;

  // Must build the same bytes as SynthesisService::request_key, or the
  // reported shards would not be where the loop routed each request.
  const std::string key_prefix = tech.canonical_string() + "|" +
                                 synth::canonical_string(synth_opts) + "|";

  ShardReport report;
  report.outcomes.resize(requests.size());
  report.workers.resize(options.workers);
  for (std::size_t i = 0; i < options.workers; ++i) {
    report.workers[i].shard = i;
  }
  std::vector<yield::Request> session = requests;
  for (std::size_t s = 0; s < requests.size(); ++s) {
    const std::size_t i = route(
        key_prefix + requests[s].spec.canonical_string(), options.workers);
    report.outcomes[s].shard = i;
    report.outcomes[s].is_yield = requests[s].is_yield;
    ++report.workers[i].requests;
    if (options.trace_id != 0) {
      session[s].trace_id = options.trace_id;
      session[s].span_id = obs::span_id_for(options.trace_id, s);
      const obs::ScopedTraceContext scoped(session[s].trace_id,
                                           session[s].span_id);
      obs::emit_instant("request.route", requests[s].spec.name,
                        requests[s].is_yield ? "yield" : "synth",
                        util::format("shard %zu", i), s);
    }
  }

  serve::ServeOptions serve_opts;
  serve_opts.workers = options.workers;
  serve_opts.worker_command = options.worker_command;
  serve_opts.service = options.service;
  serve_opts.worker_timeout_s = options.worker_timeout_s;
  serve_opts.shared_cache_capacity = 0;
  // CLOEXEC: a worker inheriting either end would hold the session open.
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::runtime_error("shard: socketpair() failed");
  }
  std::unique_ptr<serve::Server> server;  // owns fds[0]
  std::exception_ptr loop_error;
  std::thread loop;
  try {
    server = std::make_unique<serve::Server>(tech, synth_opts, serve_opts,
                                             fds[0]);
    loop = std::thread([&server, &loop_error] {
      try {
        server->run();
      } catch (...) {
        loop_error = std::current_exception();
      }
    });
  } catch (...) {
    ::close(fds[1]);
    throw;
  }
  serve::MixedConnectReport mixed;
  std::exception_ptr session_error;
  try {
    mixed = serve::run_session_mixed(fds[1], tech, synth_opts, session);
  } catch (...) {
    session_error = std::current_exception();
  }
  // Closing our end is the loop's drain signal: it answers nothing more,
  // sends every worker EOF at its cycle boundary, and reaps the pool.
  ::close(fds[1]);
  loop.join();
  if (loop_error) std::rethrow_exception(loop_error);
  if (session_error) std::rethrow_exception(session_error);

  for (std::size_t s = 0; s < requests.size(); ++s) {
    ShardOutcome& o = report.outcomes[s];
    o.result = std::move(mixed.outcomes[s].result);
    o.yield = std::move(mixed.outcomes[s].yield);
    o.error = std::move(mixed.outcomes[s].error);
  }
  report.worker_spans = std::move(mixed.worker_spans);
  const std::vector<serve::WorkerRecord> records = server->worker_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    report.workers[i].error = records[i].error;
    report.workers[i].timed_out = records[i].timed_out;
    report.workers[i].stats = records[i].stats;
  }

  // Worker failures become timeline instants so the merged trace shows
  // the failure window next to whatever span sets the worker managed to
  // flush before dying.
  if (options.trace_id != 0) {
    const obs::ScopedTraceContext scoped(options.trace_id, 0);
    for (const WorkerSummary& ws : report.workers) {
      if (ws.ok()) continue;
      obs::emit_instant("worker.failed", "shard",
                        ws.timed_out ? "timeout" : "died", ws.error,
                        ws.shard);
    }
  }

  // Per-shard telemetry lives in the timing section by construction: the
  // split of one workload across k caches depends on k.
  obs::MetricsSnapshot merged = std::move(mixed.metrics);
  for (const WorkerSummary& ws : report.workers) {
    const std::string prefix = util::format("shard.%zu.", ws.shard);
    const auto counter = [&](const char* name, std::uint64_t v) {
      obs::MetricEntry e;
      e.name = prefix + name;
      e.kind = obs::MetricKind::kCounter;
      e.deterministic = false;
      e.counter = v;
      merged.entries.push_back(std::move(e));
    };
    counter("requests", ws.stats.requests);
    counter("hits", ws.stats.hits);
    counter("misses", ws.stats.misses);
    counter("dedup_joins", ws.stats.dedup_joins);
    counter("evictions", ws.stats.evictions);
  }
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const obs::MetricEntry& a, const obs::MetricEntry& b) {
              return a.name < b.name;
            });
  report.merged_metrics = std::move(merged);
  return report;
}

ShardReport run_sharded_batch(const tech::Technology& tech,
                              const synth::SynthOptions& synth_opts,
                              const std::vector<core::OpAmpSpec>& specs,
                              const ShardOptions& options) {
  std::vector<yield::Request> requests;
  requests.reserve(specs.size());
  for (const core::OpAmpSpec& s : specs) {
    yield::Request r;
    r.spec = s;
    requests.push_back(std::move(r));
  }
  return run_sharded_requests(tech, synth_opts, requests, options);
}

}  // namespace oasys::shard
