// Stress suite for daemon-mode serving: many concurrent sessions, a
// worker that keeps dying, and a shared cache too small for the working
// set.  The invariant under load is the same as at rest — every answered
// spec is bit-for-bit what a local synthesis returns, every fault is a
// deterministic per-spec error, and the daemon always drains.
//
// Runs under the `stress` and `tsan` ctest labels; the TSan CI job execs
// the instrumented CLI as the worker pool, so the coordinator/client
// locking and the session protocol get checked under real contention.
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/server.h"
#include "service/service.h"
#include "synth/oasys.h"
#include "synth/result_json.h"
#include "synth/test_cases.h"
#include "tech/builtin.h"
#include "util/text.h"
#include "yield/service.h"

namespace oasys {
namespace {

std::string test_socket_path() {
  static int counter = 0;
  return util::format("/tmp/oasys-serve-stress-%d-%d.sock",
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

struct DaemonThread {
  serve::Server server;
  std::thread th;
  int rc = -1;

  explicit DaemonThread(serve::ServeOptions options)
      : server(tech::five_micron(), {}, std::move(options)) {
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
// can race it; retry the connection-refused window only.  Every batch
// here is plain synthesis.
serve::MixedConnectReport connected_retry(
    const std::string& socket, const tech::Technology& t,
    const std::vector<core::OpAmpSpec>& specs) {
  const std::vector<yield::Request> requests =
      yield::synthesis_requests(specs);
  for (int attempt = 0;; ++attempt) {
    try {
      return serve::run_connected_mixed(socket, t, {}, requests);
    } catch (const std::runtime_error& e) {
      if (attempt >= 1000 ||
          std::string(e.what()).find("cannot connect") == std::string::npos) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

struct ScopedEnv {
  std::string name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    ::setenv(n, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

TEST(ServeStress, ConcurrentSessionsStayExact) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  service::SynthesisService reference(t, {});
  const std::vector<synth::SynthesisResult> expected =
      reference.run_batch(specs);
  std::vector<std::string> expected_json;
  expected_json.reserve(expected.size());
  for (const synth::SynthesisResult& r : expected) {
    expected_json.push_back(synth::result_json(r));
  }

  const std::string socket = test_socket_path();
  DaemonThread daemon(serve_options(2, socket));

  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 5;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      try {
        for (int b = 0; b < kBatchesPerThread; ++b) {
          const serve::MixedConnectReport report =
              connected_retry(socket, t, specs);
          if (report.outcomes.size() != specs.size()) {
            failures[c] = "short outcome vector";
            return;
          }
          for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!report.outcomes[i].ok()) {
              failures[c] = report.outcomes[i].error;
              return;
            }
            if (synth::result_json(report.outcomes[i].result) !=
                expected_json[i]) {
              failures[c] = util::format(
                  "client %d batch %d spec %zu drifted from the local "
                  "result",
                  c, b, i);
              return;
            }
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& th : clients) th.join();
  for (int c = 0; c < kThreads; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  const serve::ServeStats st = daemon.server.stats();
  EXPECT_EQ(st.sessions, static_cast<std::uint64_t>(kThreads) *
                             kBatchesPerThread);
  EXPECT_EQ(st.batches, st.sessions);
  EXPECT_EQ(st.respawns, 0u);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeStress, RepeatedWorkerDeathsRespawnDeterministically) {
  const ScopedEnv crash("OASYS_SHARD_TEST_CRASH", "A:recv");
  const tech::Technology t = tech::five_micron();
  const core::OpAmpSpec poison = synth::paper_test_cases()[0];  // "A"
  ASSERT_EQ(poison.name, "A");

  const std::string socket = test_socket_path();
  DaemonThread daemon(serve_options(1, socket));

  // Every request for the poison spec kills the worker on receipt; each
  // must come back as the same deterministic error, each death must
  // respawn, and the daemon must keep serving through all of it.
  for (int round = 0; round < 3; ++round) {
    const serve::MixedConnectReport report =
        connected_retry(socket, t, {poison});
    ASSERT_EQ(report.outcomes.size(), 1u) << "round " << round;
    EXPECT_FALSE(report.outcomes[0].ok()) << "round " << round;
    EXPECT_NE(
        report.outcomes[0].error.find("died before returning a result"),
        std::string::npos)
        << "round " << round << ": " << report.outcomes[0].error;
  }

  // The hook only matches the poison spec: the respawned worker serves
  // everything else, bit-for-bit.  (This batch also forces the final
  // respawn to land — the error answer above arrives before the backoff
  // timer replaces the dead worker.)
  const core::OpAmpSpec healthy = synth::paper_test_cases()[1];
  const serve::MixedConnectReport after =
      connected_retry(socket, t, {healthy});
  ASSERT_TRUE(after.outcomes[0].ok()) << after.outcomes[0].error;
  EXPECT_EQ(synth::result_json(after.outcomes[0].result),
            synth::result_json(synth::synthesize_opamp(t, healthy, {})));
  EXPECT_GE(daemon.server.stats().respawns, 3u);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeStress, TinySharedCacheChurnsWithoutDrift) {
  const tech::Technology t = tech::five_micron();
  // Four distinct keys (same numerics, distinct names) against a
  // two-entry shared tier: sequential passes evict constantly, and every
  // answer — shared hit, worker private-cache hit, or recompute — must
  // be identical.
  std::vector<core::OpAmpSpec> variants;
  std::vector<std::string> expected_json;
  for (int v = 0; v < 4; ++v) {
    core::OpAmpSpec spec = synth::paper_test_cases()[0];
    spec.name = util::format("A-churn-%d", v);
    expected_json.push_back(
        synth::result_json(synth::synthesize_opamp(t, spec, {})));
    variants.push_back(std::move(spec));
  }

  const std::string socket = test_socket_path();
  serve::ServeOptions o = serve_options(2, socket);
  o.shared_cache_capacity = 2;
  DaemonThread daemon(std::move(o));

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const serve::MixedConnectReport report =
          connected_retry(socket, t, {variants[v]});
      ASSERT_TRUE(report.outcomes[0].ok())
          << "pass " << pass << " variant " << v << ": "
          << report.outcomes[0].error;
      EXPECT_EQ(synth::result_json(report.outcomes[0].result),
                expected_json[v])
          << "pass " << pass << " variant " << v;
    }
  }
  const serve::ServeStats st = daemon.server.stats();
  EXPECT_EQ(st.sessions, 8u);
  EXPECT_GE(st.shared_cache_misses, 4u);
  EXPECT_EQ(daemon.stop(), 0);
}

}  // namespace
}  // namespace oasys
