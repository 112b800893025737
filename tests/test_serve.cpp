// Daemon-mode serving suite for src/serve/.
//
// The contract under test: `oasys serve` changes where a batch runs,
// never what it returns.  A connected batch must be bit-for-bit what a
// local SynthesisService produces, at every worker count, across many
// consecutive requests on one daemon (that persistence is the feature);
// the shared result-cache tier must answer repeats without touching a
// worker; and a drain racing in-flight work must answer it and stop
// cleanly, never hang.  Worker crashes and wedges are tested once, against
// the same event loop, in test_shard.cpp (ShardFaults.*, through
// run_sharded_requests) and test_trace_wire.cpp (TracedShard.*); respawn
// after repeated deaths is ServeStress.RepeatedWorkerDeathsRespawn*.
//
// Library-level tests run the Server in-process on a thread with real
// `oasys shard-worker --session` children (OASYS_CLI_PATH, wired by
// CMake); the CLI-level test execs the shipped daemon and client and
// compares stdout bytes.  Every test here is hang-prone by construction,
// so the suite carries a hard ctest TIMEOUT.
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/spec_parser.h"
#include "serve/client.h"
#include "serve/server.h"
#include "service/service.h"
#include "spice/sim_options.h"
#include "shard/wire.h"
#include "synth/oasys.h"
#include "synth/result_json.h"
#include "synth/test_cases.h"
#include "tech/builtin.h"
#include "util/fingerprint.h"
#include "util/text.h"
#include "yield/service.h"
#include "yield/yield.h"

namespace oasys {
namespace {

std::string test_socket_path() {
  static int counter = 0;
  return util::format("/tmp/oasys-serve-test-%d-%d.sock",
                      static_cast<int>(::getpid()), counter++);
}

serve::ServeOptions serve_options(std::size_t workers,
                                  const std::string& socket) {
  serve::ServeOptions o;
  o.socket_path = socket;
  o.workers = workers;
  o.worker_command = OASYS_CLI_PATH;
  return o;
}

// In-process daemon: the Server runs on its own thread; stop() drains it
// and returns run()'s exit code.  The destructor always drains, so a
// failing ASSERT never leaks the worker pool.
struct DaemonThread {
  serve::Server server;
  std::thread th;
  int rc = -1;

  explicit DaemonThread(serve::ServeOptions options,
                        synth::SynthOptions synth_opts = {})
      : server(tech::five_micron(), synth_opts, std::move(options)) {
    th = std::thread([this] { rc = server.run(); });
  }
  int stop() {
    server.request_stop();
    if (th.joinable()) th.join();
    return rc;
  }
  ~DaemonThread() {
    server.request_stop();
    if (th.joinable()) th.join();
    ::unlink(server.options().socket_path.c_str());
  }
};

// The daemon binds its socket on the run() thread, so the first client
// can race it; retry the connection-refused window only.
serve::MixedConnectReport connected_retry(
    const std::string& socket, const tech::Technology& t,
    const synth::SynthOptions& opts,
    const std::vector<yield::Request>& requests) {
  for (int attempt = 0;; ++attempt) {
    try {
      return serve::run_connected_mixed(socket, t, opts, requests);
    } catch (const std::runtime_error& e) {
      if (attempt >= 1000 ||
          std::string(e.what()).find("cannot connect") == std::string::npos) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

// True once a raw connect to the socket succeeds (the probe session
// closes immediately, which the daemon treats as an idle disconnect).
bool wait_listening(const std::string& path, int attempts = 1000) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int i = 0; i < attempts; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd >= 0) {
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        ::close(fd);
        return true;
      }
      ::close(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

const obs::MetricEntry* find_counter(const obs::MetricsSnapshot& snap,
                                     const char* name) {
  const obs::MetricEntry* e = snap.find(name);
  EXPECT_NE(e, nullptr) << name;
  if (e != nullptr) {
    EXPECT_EQ(e->kind, obs::MetricKind::kCounter) << name;
    // Daemon counters depend on the daemon's history, never this batch.
    EXPECT_FALSE(e->deterministic) << name;
  }
  return e;
}

// ---- conformance ------------------------------------------------------------

TEST(ServeConformance, ByteIdenticalAcrossWorkerCountsAndRequests) {
  const tech::Technology t = tech::five_micron();
  // The paper corpus plus repeats, as in the shard conformance suite:
  // repeats exercise the cache tiers and must answer identically.
  std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  specs.push_back(specs[0]);
  specs.push_back(specs[1]);
  specs.push_back(specs[0]);

  service::SynthesisService reference(t, {});
  const std::vector<synth::SynthesisResult> expected =
      reference.run_batch(specs);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    const std::string socket = test_socket_path();
    DaemonThread daemon(serve_options(workers, socket));

    // Three consecutive requests on one daemon: the first fills both
    // cache tiers, the rest must replay identical bytes from them.
    serve::MixedConnectReport last;
    for (int request = 0; request < 3; ++request) {
      last = connected_retry(socket, t, {}, yield::synthesis_requests(specs));
      ASSERT_EQ(last.outcomes.size(), specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(last.outcomes[i].ok())
            << "workers=" << workers << " request " << request << " spec "
            << i << ": " << last.outcomes[i].error;
        EXPECT_EQ(synth::result_json(last.outcomes[i].result),
                  synth::result_json(expected[i]))
            << "workers=" << workers << " request " << request << " spec "
            << i;
      }
    }

    // Shared-tier accounting is worker-count-invariant: request 1 misses
    // every lookup (results land only after dispatch), requests 2 and 3
    // hit every one.
    const serve::ServeStats st = daemon.server.stats();
    EXPECT_EQ(st.sessions, 3u) << "workers=" << workers;
    EXPECT_EQ(st.batches, 3u) << "workers=" << workers;
    EXPECT_EQ(st.shared_cache_misses, specs.size()) << "workers=" << workers;
    EXPECT_EQ(st.shared_cache_hits, 2 * specs.size())
        << "workers=" << workers;
    EXPECT_EQ(st.respawns, 0u) << "workers=" << workers;
    EXPECT_EQ(st.worker_timeouts, 0u) << "workers=" << workers;

    // The same counters ride along in the merged kMetrics frame.
    const obs::MetricEntry* batches =
        find_counter(last.metrics, "serve.batches");
    if (batches != nullptr) {
      EXPECT_EQ(batches->counter, 3u);
    }
    const obs::MetricEntry* hits =
        find_counter(last.metrics, "serve.shared_cache.hits");
    if (hits != nullptr) {
      EXPECT_EQ(hits->counter, 2 * specs.size());
    }

    EXPECT_EQ(daemon.stop(), 0) << "workers=" << workers;
  }
}

TEST(ServeConformance, SecondIdenticalBatchIsServedFromTheSharedTier) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  service::SynthesisService reference(t, {});
  const std::vector<synth::SynthesisResult> expected =
      reference.run_batch(specs);

  const std::string socket = test_socket_path();
  DaemonThread daemon(serve_options(2, socket));

  connected_retry(socket, t, {}, yield::synthesis_requests(specs));
  const serve::MixedConnectReport second =
      connected_retry(socket, t, {}, yield::synthesis_requests(specs));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(second.outcomes[i].ok()) << second.outcomes[i].error;
    EXPECT_EQ(synth::result_json(second.outcomes[i].result),
              synth::result_json(expected[i]));
  }
  // Every lookup hit, so no worker saw the second batch: the summed
  // worker service stats for it are empty.
  EXPECT_EQ(second.stats.requests, 0u);
  const serve::ServeStats st = daemon.server.stats();
  EXPECT_EQ(st.shared_cache_hits, specs.size());
  EXPECT_EQ(st.shared_cache_misses, specs.size());
  const obs::MetricEntry* hits =
      find_counter(second.metrics, "serve.shared_cache.hits");
  if (hits != nullptr) {
    EXPECT_EQ(hits->counter, specs.size());
  }
  EXPECT_EQ(daemon.stop(), 0);
}

// The request list of an oasys_gen_workload manifest: jittered paper
// specs, each answered as a synthesis or a yield request as the manifest
// line says.  The generator is deterministic, so every run replays the
// same traffic.
std::vector<yield::Request> generated_workload(long count, long seed) {
  const std::string dir = util::format("/tmp/oasys-serve-test-workload-%d",
                                       static_cast<int>(::getpid()));
  const std::string cmd = util::format(
      "%s --dir %s --count %ld --seed %ld --yield-ratio 0.4 "
      "--yield-samples 12 > /dev/null",
      OASYS_GEN_WORKLOAD_PATH, dir.c_str(), count, seed);
  std::vector<yield::Request> requests;
  if (std::system(cmd.c_str()) != 0) return requests;
  std::ifstream manifest(dir + "/workload.tsv");
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::string file;
    fields >> kind >> file;
    const core::SpecParseResult r =
        core::load_opamp_spec_file(dir + "/" + file);
    if (!r.ok()) continue;
    yield::Request req;
    req.spec = r.spec;
    if (kind == "yield") {
      int samples = 0;
      std::uint64_t yield_seed = 0;
      fields >> samples >> yield_seed;
      req.is_yield = true;
      req.params.samples = samples;
      req.params.seed = yield_seed;
    }
    requests.push_back(std::move(req));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return requests;
}

TEST(ServeConformance, MixedYieldTrafficByteIdenticalToLocalService) {
  const tech::Technology t = tech::five_micron();
  // Two inputs.  Synth + yield of each paper case: the daemon must answer
  // with exactly a local YieldService's bytes, and a repeated batch must
  // come from the shared tier with the yield frame type.  A generated
  // workload: 24 jittered specs, ~40% of them yield requests.
  std::vector<yield::Request> paper;
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    yield::Request synth_req;
    synth_req.spec = spec;
    paper.push_back(synth_req);
    yield::Request yield_req;
    yield_req.spec = spec;
    yield_req.is_yield = true;
    yield_req.params.samples = 12;
    yield_req.params.seed = 5;
    paper.push_back(yield_req);
  }
  std::vector<yield::Request> generated = generated_workload(24, 7);
  ASSERT_EQ(generated.size(), 24u);
  std::size_t generated_yield = 0;
  for (const yield::Request& r : generated) generated_yield += r.is_yield;
  EXPECT_GT(generated_yield, 0u);
  EXPECT_LT(generated_yield, generated.size());

  for (const std::vector<yield::Request>* input : {&paper, &generated}) {
    SCOPED_TRACE(input == &paper ? "paper cases" : "generated workload");
    const std::vector<yield::Request>& requests = *input;
    yield::YieldService reference(t, {});
    const std::vector<yield::Outcome> expected =
        reference.run_mixed(requests);

    for (const std::size_t workers : {1u, 2u}) {
      const std::string socket = test_socket_path();
      DaemonThread daemon(serve_options(workers, socket));

      // Two consecutive mixed batches: the first fills both cache tiers,
      // the second must replay identical bytes without touching a worker.
      serve::MixedConnectReport last;
      for (int request = 0; request < 2; ++request) {
        last = connected_retry(socket, t, {}, requests);
        ASSERT_EQ(last.outcomes.size(), requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const yield::Outcome& o = last.outcomes[i];
          ASSERT_TRUE(o.ok()) << "workers=" << workers << " request "
                              << request << " item " << i << ": " << o.error;
          ASSERT_EQ(o.is_yield, requests[i].is_yield);
          EXPECT_EQ(yield::outcome_json(o), yield::outcome_json(expected[i]))
              << "workers=" << workers << " request " << request
              << " item " << i;
        }
      }
      // The repeat was answered entirely from the shared tier.
      EXPECT_EQ(last.stats.requests, 0u) << "workers=" << workers;
      const serve::ServeStats st = daemon.server.stats();
      EXPECT_EQ(st.shared_cache_misses, requests.size())
          << "workers=" << workers;
      EXPECT_EQ(st.shared_cache_hits, requests.size())
          << "workers=" << workers;
      EXPECT_EQ(daemon.stop(), 0) << "workers=" << workers;
    }
  }
}

TEST(ServeConformance, AdaptiveTranByteIdenticalToLocal) {
  // Daemon-vs-local for the adaptive transient: the serving path adds
  // worker processes, a shared cache tier, and the wire in between, and
  // none of that may perturb a single adaptive step.  Daemon answers are
  // bit-for-bit the local service's.
  const tech::Technology t = tech::five_micron();
  std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  specs.push_back(specs[0]);  // repeat: adaptive results cache like fixed

  synth::SynthOptions opts;
  opts.tran_mode = sim::TranMode::kAdaptive;
  opts.tran_rtol = 1e-3;
  opts.tran_atol = 1e-6;

  // Apply the mode locally the way a worker's apply_config_defaults does,
  // run the in-process reference, then restore.
  const sim::TranMode saved_mode = sim::tran_mode_default();
  const sim::TranTolerance saved_tol = sim::tran_tolerance_default();
  sim::set_tran_mode_default(opts.tran_mode);
  sim::set_tran_tolerance_default(opts.tran_rtol, opts.tran_atol);
  service::SynthesisService reference(t, opts);
  const std::vector<synth::SynthesisResult> expected =
      reference.run_batch(specs);
  sim::set_tran_mode_default(saved_mode);
  sim::set_tran_tolerance_default(saved_tol.rtol, saved_tol.atol);

  const std::string socket = test_socket_path();
  DaemonThread daemon(serve_options(2, socket), opts);
  // Two requests: the second replays the first's bytes from the shared
  // tier, so a nondeterministic adaptive run would show up as a diff
  // between request 1 (computed) and the local reference.
  for (int request = 0; request < 2; ++request) {
    const serve::MixedConnectReport report =
        connected_retry(socket, t, opts, yield::synthesis_requests(specs));
    ASSERT_EQ(report.outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(report.outcomes[i].ok())
          << "request " << request << " spec " << i << ": "
          << report.outcomes[i].error;
      EXPECT_EQ(synth::result_json(report.outcomes[i].result),
                synth::result_json(expected[i]))
          << "request " << request << " spec " << i;
    }
  }
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeConformance, ConfigFingerprintMismatchIsRefused) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = {synth::paper_test_cases()[0]};
  const std::string socket = test_socket_path();
  DaemonThread daemon(serve_options(1, socket));
  ASSERT_TRUE(wait_listening(socket));

  synth::SynthOptions drifted;
  drifted.iref = 12.5e-6;  // not what the daemon was started with
  try {
    serve::run_connected_mixed(socket, t, drifted,
                               yield::synthesis_requests(specs));
    FAIL() << "mismatched options were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
        << e.what();
  }
  // The refusal is per-session; a matching client still works.
  const serve::MixedConnectReport ok =
      connected_retry(socket, t, {}, yield::synthesis_requests(specs));
  ASSERT_TRUE(ok.outcomes[0].ok()) << ok.outcomes[0].error;
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeConformance, InvalidOptionsThrow) {
  serve::ServeOptions no_socket = serve_options(2, "");
  EXPECT_THROW(serve::Server(tech::five_micron(), {}, no_socket),
               std::invalid_argument);
  serve::ServeOptions zero = serve_options(0, test_socket_path());
  EXPECT_THROW(serve::Server(tech::five_micron(), {}, zero),
               std::invalid_argument);
  serve::ServeOptions no_cmd = serve_options(1, test_socket_path());
  no_cmd.worker_command.clear();
  EXPECT_THROW(serve::Server(tech::five_micron(), {}, no_cmd),
               std::invalid_argument);
  serve::ServeOptions long_path =
      serve_options(1, "/tmp/" + std::string(200, 'x'));
  EXPECT_THROW(serve::Server(tech::five_micron(), {}, long_path),
               std::invalid_argument);
}

// ---- drain ------------------------------------------------------------------

TEST(ServeDrain, StopMidCycleAnswersInFlightWorkThenExits) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  service::SynthesisService reference(t, {});
  const std::vector<synth::SynthesisResult> expected =
      reference.run_batch(specs);

  const std::string socket = test_socket_path();
  DaemonThread daemon(serve_options(2, socket));
  ASSERT_TRUE(wait_listening(socket));

  // Raw client, so the stop can be interposed mid-conversation: the
  // first frame back proves the cycle is dispatched, and stopping right
  // then exercises drain with submitted work still in flight.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  {
    shard::WorkerConfig config;
    config.tech = t;
    config.tech_hash = util::fnv1a64(t.canonical_string());
    config.opts_hash = util::fnv1a64(synth::canonical_string(config.synth));
    shard::Writer w;
    shard::put_config(w, config);
    ASSERT_TRUE(
        shard::write_frame(fd, shard::FrameType::kConfig, w.bytes()));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    shard::Writer w;
    w.u64(i);
    shard::put_spec(w, specs[i]);
    ASSERT_TRUE(
        shard::write_frame(fd, shard::FrameType::kRequest, w.bytes()));
  }
  ASSERT_TRUE(shard::write_frame(fd, shard::FrameType::kRun, {}));

  std::vector<bool> have(specs.size(), false);
  std::vector<std::string> got(specs.size());
  bool done = false;
  bool stopped = false;
  shard::Frame frame;
  while (!done) {
    ASSERT_TRUE(shard::read_frame(fd, &frame))
        << "daemon closed the connection before answering the cycle";
    if (!stopped) {
      daemon.server.request_stop();
      stopped = true;
    }
    switch (frame.type) {
      case shard::FrameType::kResult: {
        shard::Reader r(frame.payload);
        const std::uint64_t seq = r.u64();
        ASSERT_LT(seq, specs.size());
        ASSERT_FALSE(have[seq]);
        ASSERT_TRUE(r.boolean()) << "spec " << seq << " failed: " << r.str();
        got[seq] = synth::result_json(shard::get_result(r));
        have[seq] = true;
        break;
      }
      case shard::FrameType::kMetrics:
        break;
      case shard::FrameType::kDone:
        done = true;
        break;
      default:
        FAIL() << "unexpected frame type "
               << static_cast<unsigned>(frame.type);
    }
  }
  ::close(fd);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(have[i]) << "spec " << i << " never answered";
    EXPECT_EQ(got[i], synth::result_json(expected[i])) << "spec " << i;
  }
  EXPECT_EQ(daemon.stop(), 0);
  EXPECT_GE(daemon.server.stats().drain_seconds, 0.0);
  // The socket is unlinked at drain: new clients are turned away.
  EXPECT_THROW(serve::run_connected_mixed(socket, t, {},
                                          yield::synthesis_requests(specs)),
               std::runtime_error);
}

// ---- CLI end to end ---------------------------------------------------------

struct CliProc {
  pid_t pid = -1;
  int out_fd = -1;
};

CliProc spawn_cli(const std::vector<std::string>& args) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<std::string> argv_store = args;
    std::vector<char*> argv;
    std::string exe = OASYS_CLI_PATH;
    argv.push_back(exe.data());
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(exe.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  return CliProc{pid, fds[0]};
}

std::string drain_fd(int fd) {
  std::string all;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) all.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return all;
}

int wait_cli(pid_t pid) {
  int status = -1;
  pid_t r;
  do {
    r = ::waitpid(pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  return status;
}

struct CliResult {
  int status = -1;
  std::string out;
};

CliResult run_cli(const std::vector<std::string>& args) {
  const CliProc p = spawn_cli(args);
  CliResult r;
  r.out = drain_fd(p.out_fd);
  r.status = wait_cli(p.pid);
  return r;
}

TEST(ServeCli, ConnectOutputByteIdenticalToLocalBatch) {
  const CliResult local = run_cli({"batch", OASYS_SPEC_DIR, "--no-stats"});
  ASSERT_TRUE(WIFEXITED(local.status));
  ASSERT_EQ(WEXITSTATUS(local.status), 0);
  ASSERT_FALSE(local.out.empty());

  for (const char* workers : {"1", "2", "4"}) {
    const std::string socket = test_socket_path();
    const CliProc daemon =
        spawn_cli({"serve", "--socket", socket, "--workers", workers});
    if (!wait_listening(socket)) {
      ::kill(daemon.pid, SIGKILL);
      wait_cli(daemon.pid);
      ::close(daemon.out_fd);
      FAIL() << "daemon never started listening on " << socket;
    }

    // Three consecutive requests against one resident pool, each
    // byte-identical to the local batch (both under --no-stats, which
    // drops the timing-bearing footer from each).
    for (int request = 0; request < 3; ++request) {
      const CliResult got = run_cli(
          {"batch", OASYS_SPEC_DIR, "--connect", socket, "--no-stats"});
      ASSERT_TRUE(WIFEXITED(got.status)) << "workers=" << workers;
      EXPECT_EQ(WEXITSTATUS(got.status), 0) << "workers=" << workers;
      EXPECT_EQ(got.out, local.out)
          << "workers=" << workers << " request " << request;
    }

    ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
    const int status = wait_cli(daemon.pid);
    ASSERT_TRUE(WIFEXITED(status)) << "workers=" << workers;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "workers=" << workers;
    const std::string daemon_out = drain_fd(daemon.out_fd);
    EXPECT_NE(daemon_out.find("oasys serve:"), std::string::npos);
    EXPECT_NE(daemon_out.find("drained in"), std::string::npos);
    ::unlink(socket.c_str());
  }
}

}  // namespace
}  // namespace oasys
