#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/status.h"
#include "service/lru_cache.h"
#include "shard/coordinator.h"
#include "shard/wire.h"
#include "synth/opamp_design.h"
#include "util/fingerprint.h"
#include "util/text.h"
#include "yield/yield.h"

namespace oasys::serve {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Drains as much of `buf` as the fd will take without blocking.  Returns
// false when the peer is gone (EPIPE, reset); the caller retires the peer.
bool flush_buffer(int fd, std::string* buf) {
  while (!buf->empty()) {
    const ssize_t n = ::write(fd, buf->data(),
                              std::min<std::size_t>(buf->size(), 1 << 16));
    if (n > 0) {
      buf->erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  return true;
}

// Returns the raw wait status, or -1 when there is no child to wait for.
int reap(pid_t pid) {
  if (pid < 0) return -1;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  return r < 0 ? -1 : status;
}

std::string describe_exit(int status) {
  if (status < 0) return "could not be waited for";
  if (WIFEXITED(status)) {
    return util::format("exited with status %d", WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return util::format("killed by signal %d", WTERMSIG(status));
  }
  return util::format("ended with raw wait status %d", status);
}

}  // namespace

// The whole event loop, built fresh by each Server::run() call.  Single
// threaded: every mutation of loop state happens on the polling thread;
// only the stats counters (guarded by the Server's mutex) are shared.
class ServerLoop {
 public:
  explicit ServerLoop(Server& server)
      : server_(server),
        options_(server.options_),
        tech_canon_(server.tech_.canonical_string()),
        opts_canon_(synth::canonical_string(server.synth_opts_)),
        key_prefix_(tech_canon_ + "|" + opts_canon_ + "|"),
        shared_cache_(options_.shared_cache_capacity) {}
  ~ServerLoop();
  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  int run();

 private:
  // One dispatched client cycle on one worker: the global ids it must
  // answer before its kDone.
  struct Cycle {
    std::uint64_t session_id = 0;
    std::vector<std::uint64_t> gids;
  };

  struct Worker {
    pid_t pid = -1;
    int to_fd = -1;
    int from_fd = -1;
    std::string out_buf;          // pending bytes toward the worker
    shard::FrameDecoder decoder;  // partial bytes from the worker
    std::deque<Cycle> cycles;     // dispatched, kDone not yet seen
    bool alive = false;
    bool retired = false;  // drained and reaped; never respawns
    double deadline = 0.0;  // armed iff alive with in-flight cycles
    double backoff_s = 0.0;
    double respawn_at = 0.0;  // meaningful while !alive && !retired
    std::uint64_t served = 0;        // results returned, all incarnations
    std::uint64_t respawn_count = 0;  // times this shard was respawned
    WorkerRecord record;  // first failure, latest service counters
  };

  // Specs being accumulated for one worker between a session's kConfig
  // and its kRun.
  struct OpenCycle {
    std::vector<std::uint64_t> gids;
    std::string bytes;  // serialized kRequest frames, gid-keyed
  };

  struct Session {
    std::uint64_t id = 0;
    int fd = -1;
    std::string out_buf;
    shard::FrameDecoder decoder;
    bool got_config = false;
    bool run_seen = false;         // current cycle dispatched, not answered
    bool close_after_flush = false;
    std::uint64_t expected = 0;  // kRequests this cycle
    std::uint64_t returned = 0;  // kResults appended this cycle
    std::size_t outstanding = 0;  // dispatched worker cycles not yet kDone
    std::map<std::size_t, OpenCycle> open;
    std::vector<obs::MetricsSnapshot> snaps;       // per-cycle deltas
    std::vector<service::ServiceStats> wstats;     // cumulative, per worker
  };

  // Routing record for one request handed to a worker.  `key` is the
  // shared-cache key (for yield requests: the spec key extended with the
  // analysis parameters); routing always used the plain spec key.
  struct PendingSpec {
    std::uint64_t session_id = 0;
    std::uint64_t client_seq = 0;
    std::string key;
    std::size_t worker = 0;
    bool is_yield = false;
    std::string spec_name;        // for the slow-query record
    double dispatched_at = 0.0;   // stamped when the cycle ships (kRun)
  };

  // One shared-cache entry: which result frame type to replay, plus the
  // payload bytes after the sequence id (ok flag + encoded result).
  struct CachedAnswer {
    shard::FrameType type = shard::FrameType::kResult;
    std::string rest;
  };

  template <typename Fn>
  void bump(Fn&& fn) {
    std::lock_guard<std::mutex> lock(server_.stats_mu_);
    fn(server_.stats_);
  }

  Session* find_session(std::uint64_t id) {
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : &it->second;
  }

  std::string config_frame_bytes(std::size_t shard_index) const;
  void make_listener();
  void add_session(int fd);
  void spawn(std::size_t i, bool respawn);
  // `why` (empty for a plain EOF) prefixes the failure the slot records
  // when the incarnation did not end cleanly.
  void worker_gone(std::size_t i, bool timed_out, bool clean,
                   const std::string& why = {});
  void fail_worker_cycles(std::size_t i, bool timed_out);
  void handle_worker_frame(std::size_t i, const shard::Frame& frame);
  void accept_clients();
  void close_session(std::uint64_t id);
  void session_error(Session& s, const std::string& msg);
  void error_result(Session& s, std::uint64_t client_seq, bool is_yield,
                    const std::string& msg);
  // Returns false when the session entered a terminal state and later
  // buffered frames must not be processed.
  bool handle_session_frame(Session& s, const shard::Frame& frame);
  void maybe_complete(Session& s);
  void begin_drain();
  StatusReport build_status_report() const;
  void log_slow_request(const PendingSpec& p, double elapsed_s, bool ok);

  Server& server_;
  const ServeOptions& options_;
  const std::string tech_canon_;
  const std::string opts_canon_;
  const std::string key_prefix_;

  int listener_fd_ = -1;
  bool draining_ = false;
  double drain_start_ = 0.0;
  double start_time_ = 0.0;  // set when run() opens the loop
  // Newton LU work the workers reported (their sim.lu.* counter deltas),
  // summed since the loop opened; shown by `oasys stat`.
  std::uint64_t lu_analyses_ = 0;
  std::uint64_t lu_refactors_ = 0;
  std::uint64_t lu_replans_ = 0;
  std::vector<Worker> workers_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_gid_ = 1;
  std::map<std::uint64_t, PendingSpec> pending_;
  // Shared result tier: full request key -> the answer's frame type plus
  // its wire bytes after the sequence id, so a hit replays the identical
  // bytes a worker would have produced.  Synthesis answers key on the
  // plain request fingerprint; yield answers on that fingerprint extended
  // with the yield parameters, so both kinds for one spec coexist.
  service::LruCache<std::string, CachedAnswer> shared_cache_;
};

std::string ServerLoop::config_frame_bytes(std::size_t shard_index) const {
  shard::WorkerConfig config;
  config.shard = shard_index;
  config.tech = server_.tech_;
  config.synth = server_.synth_opts_;
  config.service = options_.service;
  config.tech_hash = util::fnv1a64(tech_canon_);
  config.opts_hash = util::fnv1a64(opts_canon_);
  shard::Writer w;
  shard::put_config(w, config);
  return shard::frame_bytes(shard::FrameType::kConfig, w.bytes());
}

void ServerLoop::make_listener() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  ::unlink(options_.socket_path.c_str());  // stale path from a prior run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(util::format("serve: cannot bind '%s': %s",
                                          options_.socket_path.c_str(),
                                          std::strerror(err)));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    ::unlink(options_.socket_path.c_str());
    throw std::runtime_error("serve: listen() failed");
  }
  listener_fd_ = fd;
}

ServerLoop::~ServerLoop() {
  // A no-op after a clean drain.  After a throw it releases what is left,
  // so an adopted session's peer sees EOF instead of waiting forever.
  close_fd(listener_fd_);
  for (auto& [id, s] : sessions_) close_fd(s.fd);
  for (Worker& wk : workers_) {
    close_fd(wk.to_fd);
    close_fd(wk.from_fd);
    if (wk.pid > 0) ::kill(wk.pid, SIGKILL);
    reap(wk.pid);
  }
}

void ServerLoop::add_session(int fd) {
  set_nonblocking(fd);
  Session s;
  s.id = next_session_id_++;
  s.fd = fd;
  sessions_.emplace(s.id, std::move(s));
  bump([](ServeStats& st) { ++st.sessions; });
}

void ServerLoop::spawn(std::size_t i, bool respawn) {
  Worker& wk = workers_[i];
  const shard::SpawnedWorker s =
      shard::spawn_worker_process(options_.worker_command, /*session=*/true);
  wk.pid = s.pid;
  wk.to_fd = s.to_fd;
  wk.from_fd = s.from_fd;
  set_nonblocking(wk.to_fd);
  set_nonblocking(wk.from_fd);
  wk.alive = true;
  // out_buf already leads with this incarnation's kConfig (set at
  // construction and again when the previous incarnation died), possibly
  // followed by cycles that queued up while the worker was down.
  if (!wk.cycles.empty() && options_.worker_timeout_s > 0.0) {
    wk.deadline = now_s() + options_.worker_timeout_s;
  }
  if (respawn) {
    ++wk.respawn_count;
    bump([](ServeStats& st) { ++st.respawns; });
  }
}

void ServerLoop::fail_worker_cycles(std::size_t i, bool timed_out) {
  Worker& wk = workers_[i];
  // No pids, no exit statuses: the text is stable run to run (the slot's
  // WorkerRecord carries the forensic detail).  A wedge-kill reads apart
  // from a crash so operators can tell the two.
  const std::string text = util::format(
      timed_out ? "worker %zu timed out before returning a result for this "
                  "spec"
                : "worker %zu died before returning a result for this spec",
      i);
  for (Cycle& c : wk.cycles) {
    Session* s = find_session(c.session_id);
    for (const std::uint64_t gid : c.gids) {
      const auto it = pending_.find(gid);
      if (it == pending_.end()) continue;  // already answered
      if (s != nullptr) {
        error_result(*s, it->second.client_seq, it->second.is_yield, text);
        bump([](ServeStats& st) { ++st.worker_errors; });
      }
      pending_.erase(it);
    }
    if (s != nullptr) {
      --s->outstanding;
      maybe_complete(*s);
    }
  }
  wk.cycles.clear();
}

void ServerLoop::worker_gone(std::size_t i, bool timed_out, bool clean,
                             const std::string& why) {
  Worker& wk = workers_[i];
  close_fd(wk.to_fd);
  close_fd(wk.from_fd);
  const int status = reap(wk.pid);
  const bool exit_0 = status >= 0 && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  if ((!clean || !exit_0) && wk.record.error.empty()) {
    wk.record.error =
        util::format("worker %zu %s", i, describe_exit(status).c_str());
    if (!why.empty()) wk.record.error += " after it " + why;
    wk.record.timed_out = timed_out;
  }
  wk.pid = -1;
  wk.alive = false;
  wk.deadline = 0.0;
  wk.decoder = shard::FrameDecoder();
  wk.out_buf.clear();
  if (!clean) fail_worker_cycles(i, timed_out);
  if (draining_ && wk.cycles.empty()) {
    wk.retired = true;
    return;
  }
  // The next incarnation's conversation starts with kConfig; cycles
  // routed to this shard while it is down queue up behind it.
  wk.out_buf = config_frame_bytes(i);
  wk.respawn_at = now_s() + wk.backoff_s;
  wk.backoff_s = std::min(wk.backoff_s * 2.0, options_.backoff_max_s);
}

void ServerLoop::handle_worker_frame(std::size_t i,
                                     const shard::Frame& frame) {
  Worker& wk = workers_[i];
  if (options_.worker_timeout_s > 0.0 && !wk.cycles.empty()) {
    wk.deadline = now_s() + options_.worker_timeout_s;
  }
  switch (frame.type) {
    case shard::FrameType::kResult:
    case shard::FrameType::kYieldResult: {
      shard::Reader r(frame.payload);
      const std::uint64_t gid = r.u64();
      const bool result_ok = r.boolean();
      const auto it = pending_.find(gid);
      if (it == pending_.end() || it->second.worker != i) {
        throw shard::WireError(util::format(
            "unexpected sequence id %llu",
            static_cast<unsigned long long>(gid)));
      }
      if (it->second.is_yield !=
          (frame.type == shard::FrameType::kYieldResult)) {
        throw shard::WireError(util::format(
            "worker %zu answered sequence id %llu with the wrong result "
            "kind",
            i, static_cast<unsigned long long>(gid)));
      }
      // The bytes after the gid (ok flag + encoded result) pass through
      // verbatim: same binary on both ends, and the client validates on
      // parse.  Only successes are cached — errors must re-run.
      const std::string rest = frame.payload.substr(8);
      if (result_ok && shared_cache_.capacity() > 0) {
        shared_cache_.put(it->second.key, CachedAnswer{frame.type, rest});
      }
      if (Session* s = find_session(it->second.session_id)) {
        shard::Writer w;
        w.u64(it->second.client_seq);
        std::string payload = w.take();
        payload += rest;
        s->out_buf += shard::frame_bytes(frame.type, payload);
        ++s->returned;
      }
      ++wk.served;
      if (options_.slow_ms > 0.0 && it->second.dispatched_at > 0.0) {
        const double elapsed = now_s() - it->second.dispatched_at;
        if (elapsed * 1000.0 >= options_.slow_ms) {
          log_slow_request(it->second, elapsed, result_ok);
        }
      }
      pending_.erase(it);
      break;
    }
    case shard::FrameType::kSpans: {
      // Worker trace flushes belong to the front cycle's session; forward
      // them at once so partial span sets from a worker that later dies
      // still reach the client (the failure-window guarantee).
      if (wk.cycles.empty()) {
        throw shard::WireError("kSpans with no cycle in flight");
      }
      shard::Reader r(frame.payload);
      shard::SpanSet set = shard::get_span_set(r);
      r.expect_end();
      // Receive markers carry the worker's sequence ids; re-index them by
      // the client's submission index, the index its span ids derive from.
      for (obs::TraceEvent& e : set.events) {
        if (e.name != "request.recv") continue;
        const auto it = pending_.find(e.index);
        if (it != pending_.end()) e.index = it->second.client_seq;
      }
      if (Session* s = find_session(wk.cycles.front().session_id)) {
        shard::Writer w;
        shard::put_span_set(w, set);
        s->out_buf += shard::frame_bytes(frame.type, w.bytes());
      }
      break;
    }
    case shard::FrameType::kMetrics: {
      if (wk.cycles.empty()) {
        throw shard::WireError("kMetrics with no cycle in flight");
      }
      shard::Reader r(frame.payload);
      obs::MetricsSnapshot snap = shard::get_metrics_snapshot(r);
      const service::ServiceStats stats = shard::get_service_stats(r);
      r.expect_end();
      wk.record.stats = stats;
      for (const obs::MetricEntry& e : snap.entries) {
        if (e.name == "sim.lu.analyses") lu_analyses_ += e.counter;
        if (e.name == "sim.lu.refactors") lu_refactors_ += e.counter;
        if (e.name == "sim.lu.replans") lu_replans_ += e.counter;
      }
      if (Session* s = find_session(wk.cycles.front().session_id)) {
        s->snaps.push_back(std::move(snap));
        s->wstats.push_back(stats);
      }
      break;
    }
    case shard::FrameType::kDone: {
      if (wk.cycles.empty()) {
        throw shard::WireError("kDone with no cycle in flight");
      }
      shard::Reader r(frame.payload);
      r.expect_end();
      const Cycle cycle = std::move(wk.cycles.front());
      wk.cycles.pop_front();
      wk.backoff_s = options_.backoff_initial_s;  // it finished a cycle
      Session* s = find_session(cycle.session_id);
      // A kDone with unanswered gids is a worker protocol bug; answer
      // them deterministically rather than leaving the session waiting.
      for (const std::uint64_t gid : cycle.gids) {
        const auto it = pending_.find(gid);
        if (it == pending_.end()) continue;
        if (s != nullptr) {
          error_result(*s, it->second.client_seq, it->second.is_yield,
                       util::format("worker %zu completed a cycle without "
                                    "returning a result for this spec",
                                    i));
          bump([](ServeStats& st) { ++st.worker_errors; });
        }
        pending_.erase(it);
      }
      if (s != nullptr) {
        --s->outstanding;
        maybe_complete(*s);
      }
      if (wk.cycles.empty()) wk.deadline = 0.0;
      break;
    }
    default:
      throw shard::WireError(
          util::format("unexpected frame type %u",
                       static_cast<unsigned>(frame.type)));
  }
}

void ServerLoop::accept_clients() {
  for (;;) {
    const int fd = ::accept4(listener_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept failure: poll again
    }
    add_session(fd);
  }
}

void ServerLoop::close_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  close_fd(it->second.fd);
  // Pending specs keep computing (and populating the shared cache); their
  // results find no session and are dropped.
  sessions_.erase(it);
  // Without a listener no session can arrive after the last one closes.
  if (listener_fd_ < 0 && sessions_.empty()) begin_drain();
}

void ServerLoop::session_error(Session& s, const std::string& msg) {
  shard::Writer w;
  w.str(msg);
  s.out_buf += shard::frame_bytes(shard::FrameType::kError, w.bytes());
  s.close_after_flush = true;
}

void ServerLoop::error_result(Session& s, std::uint64_t client_seq,
                              bool is_yield, const std::string& msg) {
  shard::Writer w;
  w.u64(client_seq);
  w.boolean(false);
  w.str(msg);
  s.out_buf += shard::frame_bytes(
      is_yield ? shard::FrameType::kYieldResult : shard::FrameType::kResult,
      w.bytes());
  ++s.returned;
}

bool ServerLoop::handle_session_frame(Session& s, const shard::Frame& frame) {
  switch (frame.type) {
    case shard::FrameType::kConfig: {
      if (s.got_config) {
        session_error(s, "duplicate kConfig on one session");
        return false;
      }
      shard::Reader r(frame.payload);
      const shard::WorkerConfig config = shard::get_config(r);
      r.expect_end();
      if (config.tech_hash != util::fnv1a64(tech_canon_) ||
          config.opts_hash != util::fnv1a64(opts_canon_)) {
        session_error(s,
                      "technology/options fingerprint does not match the "
                      "daemon's configuration (restart the daemon with the "
                      "client's --tech/synthesis options, or match them)");
        return false;
      }
      s.got_config = true;
      return true;
    }
    case shard::FrameType::kRequest:
    case shard::FrameType::kYieldRequest: {
      const bool is_yield = frame.type == shard::FrameType::kYieldRequest;
      if (!s.got_config || s.run_seen) {
        session_error(s, s.run_seen
                             ? "kRequest while a cycle is still in flight "
                               "(pipelining is not supported)"
                             : "kRequest before kConfig");
        return false;
      }
      shard::Reader r(frame.payload);
      const std::uint64_t seq = r.u64();
      const core::OpAmpSpec spec = shard::get_spec(r);
      yield::YieldParams params;
      if (is_yield) params = shard::get_yield_params(r);
      const shard::TraceContext trace_ctx = shard::get_trace_context(r);
      r.expect_end();
      bump([](ServeStats& st) { ++st.requests; });
      ++s.expected;
      // Routing always uses the plain spec key, so synth and yield
      // traffic for one spec co-locate on one worker and share its
      // caches; the shared tier distinguishes them by cache key.
      const std::string route_key = key_prefix_ + spec.canonical_string();
      const std::string cache_key =
          is_yield ? route_key + "|yield;" + params.canonical_string()
                   : route_key;
      if (shared_cache_.capacity() > 0) {
        if (const CachedAnswer* cached = shared_cache_.get(cache_key)) {
          bump([](ServeStats& st) { ++st.shared_cache_hits; });
          shard::Writer w;
          w.u64(seq);
          std::string payload = w.take();
          payload += cached->rest;
          s.out_buf += shard::frame_bytes(cached->type, payload);
          ++s.returned;
          return true;
        }
        bump([](ServeStats& st) { ++st.shared_cache_misses; });
      }
      const std::size_t widx = shard::route(route_key, options_.workers);
      const std::uint64_t gid = next_gid_++;
      pending_[gid] =
          PendingSpec{s.id, seq, cache_key, widx, is_yield, spec.name, 0.0};
      OpenCycle& oc = s.open[widx];
      oc.gids.push_back(gid);
      shard::Writer w;
      w.u64(gid);
      shard::put_spec(w, spec);
      if (is_yield) shard::put_yield_params(w, params);
      // The client's trace context travels with the re-sequenced request,
      // so worker span sets correlate with the client's trace id.
      shard::put_trace_context(w, trace_ctx);
      oc.bytes += shard::frame_bytes(frame.type, w.bytes());
      return true;
    }
    case shard::FrameType::kRun: {
      if (!s.got_config || s.run_seen) {
        session_error(s, s.run_seen ? "kRun while a cycle is in flight"
                                    : "kRun before kConfig");
        return false;
      }
      shard::Reader r(frame.payload);
      r.expect_end();
      s.run_seen = true;
      const double dispatch_time = now_s();
      for (auto& [widx, oc] : s.open) {
        Worker& wk = workers_[widx];
        wk.out_buf += oc.bytes;
        wk.out_buf += shard::frame_bytes(shard::FrameType::kRun, {});
        for (const std::uint64_t gid : oc.gids) {
          const auto it = pending_.find(gid);
          if (it != pending_.end()) it->second.dispatched_at = dispatch_time;
        }
        wk.cycles.push_back(Cycle{s.id, std::move(oc.gids)});
        if (wk.alive && wk.cycles.size() == 1 &&
            options_.worker_timeout_s > 0.0) {
          wk.deadline = now_s() + options_.worker_timeout_s;
        }
        ++s.outstanding;
      }
      s.open.clear();
      maybe_complete(s);  // the all-hits case answers immediately
      return true;
    }
    case shard::FrameType::kStatus: {
      // Admin introspection: answerable at any point in the session,
      // including before kConfig — `oasys stat` needs no technology.
      shard::Reader r(frame.payload);
      r.expect_end();
      shard::Writer w;
      put_status_report(w, build_status_report());
      s.out_buf += shard::frame_bytes(shard::FrameType::kStatus, w.bytes());
      return true;
    }
    default:
      session_error(s, util::format("unexpected frame type %u from client",
                                    static_cast<unsigned>(frame.type)));
      return false;
  }
}

void ServerLoop::maybe_complete(Session& s) {
  if (!s.run_seen || s.outstanding != 0 || s.returned != s.expected) return;

  obs::MetricsSnapshot merged = obs::merge_snapshots(s.snaps);
  // Same reflag as the shard coordinator: exec.regions counts one batch
  // drain per worker cycle, so its merged total varies with the pool.
  for (obs::MetricEntry& e : merged.entries) {
    if (e.name == "exec.regions") e.deterministic = false;
  }
  const ServeStats st = server_.stats();
  const auto counter = [&merged](const char* name, std::uint64_t v) {
    obs::MetricEntry e;
    e.name = name;
    e.kind = obs::MetricKind::kCounter;
    e.deterministic = false;
    e.counter = v;
    merged.entries.push_back(std::move(e));
  };
  counter("serve.sessions", st.sessions);
  counter("serve.requests", st.requests);
  counter("serve.batches", st.batches + 1);  // counting this one
  counter("serve.shared_cache.hits", st.shared_cache_hits);
  counter("serve.shared_cache.misses", st.shared_cache_misses);
  counter("serve.respawns", st.respawns);
  counter("serve.worker_timeouts", st.worker_timeouts);
  counter("serve.worker_errors", st.worker_errors);
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const obs::MetricEntry& a, const obs::MetricEntry& b) {
              return a.name < b.name;
            });

  // Sum the cumulative per-worker service stats.  Percentiles do not
  // merge; count/min/mean/max do.
  service::ServiceStats sum;
  for (const service::ServiceStats& p : s.wstats) {
    sum.requests += p.requests;
    sum.hits += p.hits;
    sum.misses += p.misses;
    sum.dedup_joins += p.dedup_joins;
    sum.evictions += p.evictions;
    sum.queue_high_water = std::max(sum.queue_high_water,
                                    p.queue_high_water);
    sum.cache_size += p.cache_size;
    if (p.latency.count > 0) {
      if (sum.latency.count == 0 || p.latency.min_s < sum.latency.min_s) {
        sum.latency.min_s = p.latency.min_s;
      }
      sum.latency.max_s = std::max(sum.latency.max_s, p.latency.max_s);
      const double total = static_cast<double>(sum.latency.count) +
                           static_cast<double>(p.latency.count);
      sum.latency.mean_s =
          (sum.latency.mean_s * static_cast<double>(sum.latency.count) +
           p.latency.mean_s * static_cast<double>(p.latency.count)) /
          total;
      sum.latency.count += p.latency.count;
    }
  }

  shard::Writer w;
  shard::put_metrics_snapshot(w, merged);
  shard::put_service_stats(w, sum);
  s.out_buf += shard::frame_bytes(shard::FrameType::kMetrics, w.bytes());
  s.out_buf += shard::frame_bytes(shard::FrameType::kDone, {});
  bump([](ServeStats& stx) { ++stx.batches; });

  // Reset for a possible next cycle on the same connection.
  s.run_seen = false;
  s.expected = 0;
  s.returned = 0;
  s.snaps.clear();
  s.wstats.clear();
  if (draining_) s.close_after_flush = true;
}

StatusReport ServerLoop::build_status_report() const {
  StatusReport rep;
  rep.uptime_s = now_s() - start_time_;
  rep.draining = draining_;
  const ServeStats st = server_.stats();
  rep.sessions_total = st.sessions;
  rep.sessions_active = sessions_.size();
  rep.requests_total = st.requests;
  rep.batches = st.batches;
  rep.in_flight = pending_.size();
  rep.shared_cache_size = shared_cache_.size();
  rep.shared_cache_capacity = shared_cache_.capacity();
  rep.shared_cache_hits = st.shared_cache_hits;
  rep.shared_cache_misses = st.shared_cache_misses;
  rep.respawns = st.respawns;
  rep.worker_timeouts = st.worker_timeouts;
  rep.worker_errors = st.worker_errors;
  rep.lu_analyses = lu_analyses_;
  rep.lu_refactors = lu_refactors_;
  rep.lu_replans = lu_replans_;
  rep.workers.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& wk = workers_[i];
    WorkerStatus ws;
    ws.shard = i;
    ws.pid = static_cast<std::int64_t>(wk.pid);
    ws.alive = wk.alive;
    ws.retired = wk.retired;
    ws.in_flight_cycles = wk.cycles.size();
    ws.requests_served = wk.served;
    ws.respawns = wk.respawn_count;
    ws.backoff_s = wk.backoff_s;
    rep.workers.push_back(ws);
  }
  return rep;
}

void ServerLoop::log_slow_request(const PendingSpec& p, double elapsed_s,
                                  bool ok) {
  // One structured line per slow request, on stderr where the daemon's
  // operator logs already go.  Spec names come from user files, so the
  // only JSON-hostile bytes worth escaping are quotes and backslashes.
  std::string name;
  name.reserve(p.spec_name.size());
  for (const char c : p.spec_name) {
    if (c == '"' || c == '\\') name.push_back('\\');
    name.push_back(c);
  }
  std::fprintf(stderr,
               "{\"event\": \"slow_request\", \"ms\": %.3f, "
               "\"threshold_ms\": %.3f, \"spec\": \"%s\", "
               "\"kind\": \"%s\", \"worker\": %zu, \"session\": %llu, "
               "\"ok\": %s}\n",
               elapsed_s * 1000.0, options_.slow_ms, name.c_str(),
               p.is_yield ? "yield" : "synth", p.worker,
               static_cast<unsigned long long>(p.session_id),
               ok ? "true" : "false");
}

void ServerLoop::begin_drain() {
  if (draining_) return;
  draining_ = true;
  drain_start_ = now_s();
  if (listener_fd_ >= 0) {
    close_fd(listener_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  // Sessions with a dispatched cycle get their answers first — left
  // untouched here, maybe_complete closes them once the full answer is
  // buffered.  Everything idle or mid-upload closes now (drain finishes
  // submitted work only).
  std::vector<std::uint64_t> to_close;
  for (auto& [id, s] : sessions_) {
    if (s.run_seen) continue;
    if (s.out_buf.empty()) {
      to_close.push_back(id);
    } else {
      s.close_after_flush = true;
    }
  }
  for (const std::uint64_t id : to_close) close_session(id);
  for (Worker& wk : workers_) {
    if (!wk.alive && wk.cycles.empty() && !wk.retired) wk.retired = true;
  }
}

int ServerLoop::run() {
  // write_frame-style buffered writes report a vanished peer via EPIPE;
  // scoped so an embedding application's handler survives.
  const shard::ScopedSigpipeIgnore sigpipe_guard;

  if (server_.adopted_fd_ >= 0) {
    add_session(std::exchange(server_.adopted_fd_, -1));
  } else {
    make_listener();
  }
  start_time_ = now_s();
  workers_.resize(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_[i].backoff_s = options_.backoff_initial_s;
    workers_[i].out_buf = config_frame_bytes(i);
    spawn(i, /*respawn=*/false);
  }

  // poll entry bookkeeping: what each pollfd row refers to.
  enum class Kind { kWake, kListener, kWorker, kSession };
  struct Row {
    Kind kind;
    std::size_t index;     // worker index
    std::uint64_t id;      // session id
  };

  std::vector<pollfd> fds;
  std::vector<Row> rows;
  shard::Frame frame;

  for (;;) {
    // Exit once drained: no sessions, every worker retired.
    if (draining_ && sessions_.empty()) {
      bool all_retired = true;
      for (const Worker& wk : workers_) {
        if (!wk.retired) all_retired = false;
      }
      if (all_retired) break;
    }

    fds.clear();
    rows.clear();
    fds.push_back(pollfd{server_.wake_read_fd_, POLLIN, 0});
    rows.push_back(Row{Kind::kWake, 0, 0});
    if (listener_fd_ >= 0) {
      fds.push_back(pollfd{listener_fd_, POLLIN, 0});
      rows.push_back(Row{Kind::kListener, 0, 0});
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& wk = workers_[i];
      if (!wk.alive) continue;
      fds.push_back(pollfd{wk.from_fd, POLLIN, 0});
      rows.push_back(Row{Kind::kWorker, i, 0});
      if (!wk.out_buf.empty()) {
        fds.push_back(pollfd{wk.to_fd, POLLOUT, 0});
        rows.push_back(Row{Kind::kWorker, i, 0});
      }
    }
    for (auto& [id, s] : sessions_) {
      short events = s.close_after_flush ? 0 : POLLIN;
      if (!s.out_buf.empty()) events |= POLLOUT;
      if (events == 0) events = POLLOUT;  // flush-then-close sessions
      fds.push_back(pollfd{s.fd, events, 0});
      rows.push_back(Row{Kind::kSession, 0, id});
    }

    // Timeout: the nearest worker deadline or respawn time.
    double next_at = 0.0;
    bool have_next = false;
    const auto consider = [&](double at) {
      if (!have_next || at < next_at) {
        next_at = at;
        have_next = true;
      }
    };
    for (const Worker& wk : workers_) {
      if (wk.alive && !wk.cycles.empty() && wk.deadline > 0.0) {
        consider(wk.deadline);
      }
      if (!wk.alive && !wk.retired && (!draining_ || !wk.cycles.empty())) {
        consider(wk.respawn_at);
      }
    }
    int timeout_ms = -1;
    if (have_next) {
      const double remaining = next_at - now_s();
      timeout_ms = remaining <= 0.0
                       ? 0
                       : static_cast<int>(
                             std::min(remaining * 1000.0 + 1.0, 60000.0));
    }

    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error("serve: poll() failed");
    }

    if (rc > 0) {
      for (std::size_t n = 0; n < fds.size(); ++n) {
        const short revents = fds[n].revents;
        if (revents == 0) continue;
        const Row row = rows[n];
        switch (row.kind) {
          case Kind::kWake: {
            char buf[64];
            while (::read(server_.wake_read_fd_, buf, sizeof(buf)) > 0) {
            }
            begin_drain();
            break;
          }
          case Kind::kListener:
            if (!draining_) accept_clients();
            break;
          case Kind::kWorker: {
            Worker& wk = workers_[row.index];
            if (!wk.alive) break;  // already handled this iteration
            if (fds[n].fd == wk.to_fd) {
              if (!flush_buffer(wk.to_fd, &wk.out_buf)) {
                worker_gone(row.index, /*timed_out=*/false,
                            /*clean=*/false, "stopped reading its input");
              }
              break;
            }
            if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) break;
            char buf[1 << 16];
            const ssize_t nread = ::read(wk.from_fd, buf, sizeof(buf));
            if (nread > 0) {
              wk.decoder.feed(std::string_view(buf,
                                               static_cast<std::size_t>(
                                                   nread)));
              try {
                while (wk.alive && wk.decoder.next(&frame)) {
                  handle_worker_frame(row.index, frame);
                }
              } catch (const shard::WireError& e) {
                ::kill(wk.pid, SIGKILL);
                worker_gone(row.index, /*timed_out=*/false,
                            /*clean=*/false,
                            std::string("broke the protocol: ") + e.what());
              }
            } else if (nread == 0 ||
                       (nread < 0 && errno != EAGAIN &&
                        errno != EWOULDBLOCK && errno != EINTR)) {
              const bool clean = draining_ && wk.cycles.empty() &&
                                 !wk.decoder.mid_frame();
              worker_gone(row.index, /*timed_out=*/false, clean);
            }
            break;
          }
          case Kind::kSession: {
            const auto it = sessions_.find(row.id);
            if (it == sessions_.end()) break;
            Session& s = it->second;
            if ((revents & POLLOUT) != 0 && !s.out_buf.empty()) {
              if (!flush_buffer(s.fd, &s.out_buf)) {
                close_session(row.id);
                break;
              }
            }
            if (s.close_after_flush) {
              if (s.out_buf.empty()) close_session(row.id);
              break;
            }
            if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
              char buf[1 << 16];
              const ssize_t nread = ::read(s.fd, buf, sizeof(buf));
              if (nread > 0) {
                s.decoder.feed(std::string_view(
                    buf, static_cast<std::size_t>(nread)));
                try {
                  while (s.decoder.next(&frame)) {
                    if (!handle_session_frame(s, frame)) break;
                  }
                } catch (const shard::WireError& e) {
                  session_error(s, std::string("malformed frame: ") +
                                       e.what());
                }
              } else if (nread == 0 ||
                         (nread < 0 && errno != EAGAIN &&
                          errno != EWOULDBLOCK && errno != EINTR)) {
                close_session(row.id);
              }
            }
            break;
          }
        }
      }
    }

    // Time-driven work: wedged-worker kills, scheduled respawns, and
    // worker EOF during drain.
    const double now = now_s();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& wk = workers_[i];
      if (wk.alive && !wk.cycles.empty() &&
          options_.worker_timeout_s > 0.0 && wk.deadline > 0.0 &&
          now >= wk.deadline) {
        ::kill(wk.pid, SIGKILL);
        bump([](ServeStats& st) { ++st.worker_timeouts; });
        worker_gone(i, /*timed_out=*/true, /*clean=*/false,
                    util::format("produced no frame within its %.3g s "
                                 "deadline",
                                 options_.worker_timeout_s));
        continue;
      }
      if (!wk.alive && !wk.retired && now >= wk.respawn_at &&
          (!draining_ || !wk.cycles.empty())) {
        spawn(i, /*respawn=*/true);
        continue;
      }
      if (draining_ && !wk.alive && !wk.retired && wk.cycles.empty()) {
        wk.retired = true;
        continue;
      }
      if (draining_ && wk.alive && wk.cycles.empty() &&
          wk.out_buf.empty() && wk.to_fd >= 0) {
        // EOF at the cycle boundary: the session worker exits 0, the
        // read side sees EOF, and worker_gone retires it cleanly.
        close_fd(wk.to_fd);
      }
    }
  }

  const double drain_s = now_s() - drain_start_;
  bump([drain_s](ServeStats& st) { st.drain_seconds = drain_s; });
  std::vector<WorkerRecord> records;
  for (const Worker& wk : workers_) records.push_back(wk.record);
  {
    std::lock_guard<std::mutex> lock(server_.stats_mu_);
    server_.records_ = std::move(records);
  }
  return 0;
}

Server::Server(tech::Technology tech, synth::SynthOptions synth_opts,
               ServeOptions options, int session_fd)
    : tech_(std::move(tech)),
      synth_opts_(synth_opts),
      options_(std::move(options)),
      adopted_fd_(session_fd) {
  // The session fd is ours even when construction fails.
  const auto reject = [this](const std::string& why) {
    close_fd(adopted_fd_);
    throw std::invalid_argument("serve: " + why);
  };
  if (options_.workers == 0) reject("workers must be >= 1");
  if (options_.worker_command.empty()) reject("worker_command must be set");
  sockaddr_un probe{};
  if (adopted_fd_ < 0 && options_.socket_path.empty()) {
    reject("socket_path must be set");
  }
  if (adopted_fd_ < 0 &&
      options_.socket_path.size() + 1 > sizeof(probe.sun_path)) {
    reject(util::format("socket path '%s' exceeds the %zu-byte sockaddr_un "
                        "limit",
                        options_.socket_path.c_str(),
                        sizeof(probe.sun_path) - 1));
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    close_fd(adopted_fd_);
    throw std::runtime_error("serve: pipe() failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);
  ::fcntl(wake_read_fd_, F_SETFD, FD_CLOEXEC);
  ::fcntl(wake_write_fd_, F_SETFD, FD_CLOEXEC);
}

Server::~Server() {
  close_fd(wake_read_fd_);
  close_fd(wake_write_fd_);
  close_fd(adopted_fd_);
}

int Server::run() {
  ServerLoop loop(*this);
  return loop.run();
}

void Server::request_stop() {
  const char byte = 1;
  const ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::vector<WorkerRecord> Server::worker_records() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return records_;
}

}  // namespace oasys::serve
