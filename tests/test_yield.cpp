// Yield subsystem suite (src/yield/).
//
// The contract under test is the determinism chain the serving stack
// leans on: analyze_yield is a pure function of (technology, synthesis,
// samples, seed) — bit-for-bit identical at every jobs setting and on
// the cached path — and run_mixed answers mixed synth/yield traffic in
// submission order with exactly those bytes.  The determinism and service
// tests compare canonical yield_result_json renderings, the same bytes the
// golden suite, the shard conformance check, and the daemon share; the
// exactness tests compare each sample's AC walk with the full sweep.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/spec_parser.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "spice/ac.h"
#include "spice/measure.h"
#include "spice/workspace.h"
#include "synth/oasys.h"
#include "synth/result_json.h"
#include "synth/test_cases.h"
#include "tech/builtin.h"
#include "yield/service.h"
#include "yield/yield.h"

namespace oasys {
namespace {

const tech::Technology& tech5() {
  static const tech::Technology t = tech::five_micron();
  return t;
}

yield::YieldParams params(int samples, std::uint64_t seed,
                          std::size_t jobs = 1) {
  yield::YieldParams p;
  p.samples = samples;
  p.seed = seed;
  p.jobs = jobs;
  return p;
}

// ---- determinism ------------------------------------------------------------

TEST(YieldDeterminism, BitIdenticalAcrossJobsCounts) {
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    const std::string reference = yield::yield_result_json(
        yield::run_yield(tech5(), spec, params(24, 7, 1)));
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
      EXPECT_EQ(yield::yield_result_json(yield::run_yield(
                    tech5(), spec, params(24, 7, jobs))),
                reference)
          << spec.name << " diverged at jobs " << jobs;
    }
  }
}

TEST(YieldDeterminism, SeedAndSampleCountChangeTheResult) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[1];
  const std::string base = yield::yield_result_json(
      yield::run_yield(tech5(), spec, params(24, 7)));
  EXPECT_NE(yield::yield_result_json(
                yield::run_yield(tech5(), spec, params(24, 8))),
            base);
  EXPECT_NE(yield::yield_result_json(
                yield::run_yield(tech5(), spec, params(23, 7))),
            base);
}

TEST(YieldDeterminism, AnalyzeMatchesRunYieldOnSharedSynthesis) {
  // run_yield = synthesize_opamp + analyze_yield, nothing more.
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const synth::SynthesisResult synthesis =
      synth::synthesize_opamp(tech5(), spec, {});
  EXPECT_EQ(yield::yield_result_json(
                yield::analyze_yield(tech5(), synthesis, params(16, 3))),
            yield::yield_result_json(
                yield::run_yield(tech5(), spec, params(16, 3))));
}

// ---- result shape -----------------------------------------------------------

TEST(YieldResult, CountsAndMetricsAreConsistent) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const yield::YieldResult r =
      yield::run_yield(tech5(), spec, params(32, 1));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples_requested, 32);
  EXPECT_EQ(r.seed, 1u);
  EXPECT_LE(r.samples_converged, r.samples_requested);
  EXPECT_LE(r.pass_count,
            static_cast<std::uint64_t>(r.samples_converged));
  EXPECT_DOUBLE_EQ(r.yield,
                   static_cast<double>(r.pass_count) / 32.0);
  ASSERT_FALSE(r.metrics.empty());
  for (const yield::MetricStats& m : r.metrics) {
    EXPECT_FALSE(m.name.empty());
    EXPECT_LE(m.min, m.p05);
    EXPECT_LE(m.p05, m.p50);
    EXPECT_LE(m.p50, m.p95);
    EXPECT_LE(m.p95, m.max);
    EXPECT_GE(m.sigma, 0.0);
    EXPECT_LE(m.pass, static_cast<std::uint64_t>(r.samples_converged));
    if (!m.constrained) {
      // Unconstrained axes pass by definition.
      EXPECT_EQ(m.pass, static_cast<std::uint64_t>(r.samples_converged));
    }
  }
  // A constrained metric can never pass more often than the overall
  // yield's conjunction allows.
  for (const yield::MetricStats& m : r.metrics) {
    if (m.constrained) {
      EXPECT_GE(m.pass, r.pass_count);
    }
  }
}

TEST(YieldResult, InfeasibleSynthesisFailsCleanly) {
  core::OpAmpSpec spec = synth::paper_test_cases()[0];
  spec.gain_min_db = 500.0;  // no style can reach this
  const yield::YieldResult r =
      yield::run_yield(tech5(), spec, params(8, 1));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(YieldResult, RejectsNonPositiveSampleCount) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const synth::SynthesisResult synthesis =
      synth::synthesize_opamp(tech5(), spec, {});
  const yield::YieldResult r =
      yield::analyze_yield(tech5(), synthesis, params(0, 1));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(YieldResult, JsonExtendsTheSynthesisDocument) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const yield::YieldResult r =
      yield::run_yield(tech5(), spec, params(8, 1));
  const std::string json = yield::yield_result_json(r);
  EXPECT_NE(json.find("oasys.result.v1"), std::string::npos);
  EXPECT_NE(json.find("\"yield\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 8"), std::string::npos);
}

TEST(YieldParams, JobsNeverSplitsTheCanonicalKey) {
  EXPECT_EQ(params(16, 3, 1).canonical_string(),
            params(16, 3, 4).canonical_string());
  EXPECT_NE(params(16, 3).canonical_string(),
            params(16, 4).canonical_string());
  EXPECT_NE(params(16, 3).canonical_string(),
            params(17, 3).canonical_string());
}

// ---- counters ---------------------------------------------------------------

TEST(YieldObservability, DeterministicCountersAdvance) {
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const char* name) -> std::uint64_t {
    const obs::MetricEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->counter;
  };
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  const yield::YieldResult r = yield::run_yield(
      tech5(), synth::paper_test_cases()[0], params(8, 1));
  ASSERT_TRUE(r.ok) << r.error;
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(counter(after, "yield.requests"),
            counter(before, "yield.requests") + 1);
  EXPECT_EQ(counter(after, "yield.samples"),
            counter(before, "yield.samples") + 8);
  EXPECT_EQ(counter(after, "yield.samples_converged"),
            counter(before, "yield.samples_converged") +
                static_cast<std::uint64_t>(r.samples_converged));
  EXPECT_EQ(counter(after, "yield.samples_passed"),
            counter(before, "yield.samples_passed") + r.pass_count);
}

// ---- exactness of the lazy AC walk --------------------------------------------
//
// A yield sample walks the AC grid (sim::open_loop_metrics) instead of
// sweeping all of it.  These tests replay every sample of analyze_yield
// through yield::SampleFixture and measure each nulled sample both ways:
// the walk, and loop_metrics(bode_of_node(ac_analysis(full grid))).  The
// three figures yield reads must agree bit for bit.

#ifndef OASYS_GEN_WORKLOAD_PATH
#error "test_yield requires OASYS_GEN_WORKLOAD_PATH (see tests/CMakeLists.txt)"
#endif

struct Reading {
  bool converged = false;
  double gain_db = 0.0;
  std::optional<double> ugf;
  std::optional<double> pm;
};

// Replays `samples` samples of `seed` on two exec lanes with per-lane DC and
// AC scratch, as analyze_yield runs them, and compares walk and full sweep.
// Returns the number of samples whose offset null converged (0 for an
// infeasible spec, which has no samples).
std::size_t expect_walk_matches_full_sweep(const tech::Technology& t,
                                           const core::OpAmpSpec& spec,
                                           std::uint64_t seed, int samples) {
  const synth::SynthesisResult synthesis = synth::synthesize_opamp(t, spec);
  const synth::OpAmpDesign* design = synthesis.best();
  if (design == nullptr) return 0;
  SCOPED_TRACE(spec.name + " on " + t.name + ", seed " +
               std::to_string(seed));
  const yield::SampleFixture fixture(t, *design);
  EXPECT_EQ(fixture.freqs.size(), 121u);

  const std::size_t n = static_cast<std::size_t>(samples);
  std::vector<Reading> walk(n);
  std::vector<Reading> full(n);
  std::vector<char> nulled(n, 0);
  struct Lane {
    sim::SimWorkspace dc;
    sim::OpenLoopScratch ac;
  };
  std::vector<Lane> lanes(exec::lane_count(n, 2));
  exec::parallel_for_lanes(
      n,
      [&](std::size_t i, std::size_t lane) {
        synth::OpenLoopBench bench = fixture.draw(seed, i);
        const synth::OffsetNull null = synth::measure_offset(
            &bench, t, fixture.nominal, &lanes[lane].dc);
        if (!null.ok) return;
        nulled[i] = 1;
        const sim::OpenLoopMetrics w = sim::open_loop_metrics(
            bench.circuit, null.op, fixture.freqs, {bench.nodes.out},
            &lanes[lane].ac);
        walk[i] = {w.ok, w.metrics.dc_gain_db, w.metrics.unity_gain_freq,
                   w.metrics.phase_margin_deg};
        const sim::AcResult ac =
            sim::ac_analysis(bench.circuit, t, null.op, fixture.freqs, 1);
        if (!ac.ok) return;
        const sim::LoopMetrics lm = sim::loop_metrics(sim::bode_of_node(
            ac, sim::MnaLayout(bench.circuit), bench.nodes.out));
        full[i] = {true, lm.dc_gain_db, lm.unity_gain_freq,
                   lm.phase_margin_deg};
      },
      2);
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(walk[i].converged, full[i].converged);
    EXPECT_EQ(walk[i].gain_db, full[i].gain_db);
    EXPECT_EQ(walk[i].ugf, full[i].ugf);
    EXPECT_EQ(walk[i].pm, full[i].pm);
  }
  std::size_t compared = 0;
  for (const char c : nulled) compared += c != 0 ? 1 : 0;
  return compared;
}

TEST(YieldExactness, PaperCasesWalkEqualsFullSweepOnBothTechnologies) {
  for (const tech::Technology& t :
       {tech::five_micron(), tech::three_micron()}) {
    for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
      for (const std::uint64_t seed : {1u, 2u}) {
        EXPECT_GT(expect_walk_matches_full_sweep(t, spec, seed, 64), 0u)
            << spec.name << " on " << t.name;
      }
    }
  }
}

// Specs from oasys_gen_workload: jittered paper cases, as the serving
// benchmarks replay them.
std::vector<core::OpAmpSpec> generated_corpus(long count, long seed) {
  const std::string dir = "/tmp/oasys-test-yield-corpus-" +
                          std::to_string(::getpid());
  const std::string cmd = std::string(OASYS_GEN_WORKLOAD_PATH) + " --dir " +
                          dir + " --count " + std::to_string(count) +
                          " --seed " + std::to_string(seed) + " > /dev/null";
  if (std::system(cmd.c_str()) != 0) return {};
  std::vector<core::OpAmpSpec> specs;
  std::ifstream manifest(dir + "/workload.tsv");
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::string file;
    fields >> kind >> file;
    const core::SpecParseResult r =
        core::load_opamp_spec_file(dir + "/" + file);
    if (r.ok()) specs.push_back(r.spec);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return specs;
}

TEST(YieldExactness, GeneratedCorpusWalkEqualsFullSweep) {
  const std::vector<core::OpAmpSpec> corpus = generated_corpus(32, 5);
  ASSERT_EQ(corpus.size(), 32u);
  std::size_t compared = 0;
  for (const tech::Technology& t :
       {tech::five_micron(), tech::three_micron()}) {
    for (const core::OpAmpSpec& spec : corpus) {
      for (const std::uint64_t seed : {1u, 2u}) {
        compared += expect_walk_matches_full_sweep(t, spec, seed, 64);
      }
    }
  }
  EXPECT_GT(compared, corpus.size() * 64);
}

TEST(YieldExactness, CaseCSampleSolvesAtMost25AcPoints) {
  const synth::SynthesisResult synthesis =
      synth::synthesize_opamp(tech5(), synth::spec_case_c());
  obs::Counter& points = obs::Registry::global().counter("sim.ac.points");
  const std::uint64_t before = points.value();
  const yield::YieldResult r =
      yield::analyze_yield(tech5(), synthesis, params(64, 1, 2));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LE(points.value() - before, 25u * 64u);
}

// ---- YieldService mixed traffic ---------------------------------------------

std::vector<yield::Request> mixed_requests() {
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  std::vector<yield::Request> requests;
  for (const core::OpAmpSpec& spec : specs) {
    yield::Request synth_req;
    synth_req.spec = spec;
    requests.push_back(synth_req);
    yield::Request yield_req;
    yield_req.spec = spec;
    yield_req.is_yield = true;
    yield_req.params = params(12, 5);
    requests.push_back(yield_req);
  }
  return requests;
}

TEST(YieldService, MixedBatchMatchesDirectCallsInSubmissionOrder) {
  const std::vector<yield::Request> requests = mixed_requests();
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> outcomes = svc.run_mixed(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].is_yield, requests[i].is_yield);
    if (requests[i].is_yield) {
      EXPECT_EQ(yield::yield_result_json(outcomes[i].yield),
                yield::yield_result_json(yield::run_yield(
                    tech5(), requests[i].spec, requests[i].params)));
    } else {
      EXPECT_EQ(synth::result_json(outcomes[i].result),
                synth::result_json(synth::synthesize_opamp(
                    tech5(), requests[i].spec, {})));
    }
  }
}

TEST(YieldService, ComputedSynthesisOutcomeReportsItsServiceTime) {
  // `oasys batch --sort latency` orders rows by Outcome::seconds, so a
  // synthesis the service computed must carry its nonzero wall time.
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> outcomes = svc.run_mixed(
      yield::synthesis_requests({synth::paper_test_cases()[0]}));
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[0].is_yield);
  EXPECT_GT(outcomes[0].seconds, 0.0);
}

TEST(YieldService, RepeatedYieldRequestIsACacheHitWithIdenticalBytes) {
  yield::Request request;
  request.spec = synth::paper_test_cases()[0];
  request.is_yield = true;
  request.params = params(12, 5);
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> first = svc.run_mixed({request});
  const service::ServiceStats mid = svc.stats();
  const std::vector<yield::Outcome> second = svc.run_mixed({request});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(first[0].ok());
  ASSERT_TRUE(second[0].ok());
  EXPECT_EQ(yield::yield_result_json(second[0].yield),
            yield::yield_result_json(first[0].yield));
  // The repeat costs no new synthesis: the underlying service answers
  // from its LRU, and the yield analysis answers from the yield cache.
  const service::ServiceStats end = svc.stats();
  EXPECT_EQ(end.misses, mid.misses);
  EXPECT_GT(end.hits, mid.hits);
}

TEST(YieldService, DistinctParamsAreDistinctCacheEntries) {
  yield::Request request;
  request.spec = synth::paper_test_cases()[0];
  request.is_yield = true;
  request.params = params(12, 5);
  yield::Request other = request;
  other.params = params(12, 6);
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> outcomes =
      svc.run_mixed({request, other});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_NE(svc.yield_key(request.spec, request.params),
            svc.yield_key(other.spec, other.params));
  EXPECT_NE(yield::yield_result_json(outcomes[0].yield),
            yield::yield_result_json(outcomes[1].yield));
}

TEST(YieldService, InfeasibleYieldIsAnOutcomeNotAnException) {
  yield::Request request;
  request.spec = synth::paper_test_cases()[0];
  request.spec.gain_min_db = 500.0;
  request.is_yield = true;
  request.params = params(8, 1);
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> outcomes = svc.run_mixed({request});
  ASSERT_EQ(outcomes.size(), 1u);
  // The computation ran to completion; infeasibility lives inside the
  // yield result, mirroring how synthesis treats infeasible specs.
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[0].yield.ok);
  EXPECT_FALSE(outcomes[0].yield.error.empty());
}

}  // namespace
}  // namespace oasys
