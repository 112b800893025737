// Monte-Carlo yield analysis — statistical qualification of a synthesized
// design as a first-class workload.
//
// The paper synthesizes one nominal design per spec; real knowledge-based
// flows must also report *yield*: the fraction of fabricated instances
// that still meet the spec under random device mismatch.  This module
// draws N mismatch samples, re-measures each perturbed instance through
// the same open-loop bench the nominal verification uses, and reduces to
// yield / sigma / percentile statistics per spec metric.
//
// One sample is one bordered Newton solve (the offset null and the DC
// operating point there) plus a lazy walk of the verification AC grid
// (sim::open_loop_metrics): about 20 of its 121 points, the ones DC gain,
// GBW and phase margin read.  Exactness contract: those three figures are
// bit-identical to a full 121-point sweep read by sim::loop_metrics, under
// the walk's documented proviso (spice/measure.h).
//
// Determinism contract (the whole point of the design):
//  * sample i draws from util::RngStream(seed, i) — a pure function of
//    (seed, sample index), so any partitioning of the sample space over
//    `--jobs` threads, shard workers, or chunk sizes sees identical draws;
//  * every sample warm-starts from the *nominal* operating point, and its
//    Newton LU starts from the nominal solve's pivot plan, both computed
//    once before the fan-out — no cross-sample solver state;
//  * the reduction runs in fixed sample-index order (exec::parallel_for
//    lands results by index), and percentiles sort converged values.
// Together: analyze_yield() is bit-for-bit identical at every jobs
// setting, every shard worker count, and daemon vs. local execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spec.h"
#include "synth/oasys.h"
#include "synth/testbench.h"
#include "tech/technology.h"

namespace oasys::yield {

struct YieldParams {
  int samples = 200;
  std::uint64_t seed = 1;
  // Threads for the sample fan-out (0 = exec::default_jobs()).  Excluded
  // from canonical_string(): jobs never changes the result bytes, so it
  // must never split the cache.
  std::size_t jobs = 0;

  // Canonical "samples=...;seed=...;" rendering for cache keys and wire
  // fingerprints (util::Fingerprint token rules).
  std::string canonical_string() const;
};

// Distribution of one measured metric over the converged samples, plus its
// spec bound when the spec constrains that axis.  `pass` counts converged
// samples meeting the bound (equal to the converged count for
// unconstrained axes).
struct MetricStats {
  std::string name;        // "offset" | "gain_db" | "gbw" | "pm_deg"
  bool constrained = false;
  double bound = 0.0;      // spec bound (0 when unconstrained)
  std::uint64_t pass = 0;
  double mean = 0.0;
  double sigma = 0.0;      // sample stddev (n-1)
  double min = 0.0;
  double max = 0.0;
  double p05 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

struct YieldResult {
  bool ok = false;
  std::string error;
  // The underlying synthesis (nominal design + candidates); rendered as
  // the base oasys.result.v1 document by yield_result_json.
  synth::SynthesisResult synthesis;
  int samples_requested = 0;
  int samples_converged = 0;
  std::uint64_t seed = 0;
  // Samples that converged AND met every constrained spec axis.
  std::uint64_t pass_count = 0;
  double yield = 0.0;  // pass_count / samples_requested
  std::vector<MetricStats> metrics;
};

// What every sample of analyze_yield starts from, built once per design.
// Exposed so tests can replay any sample outside the fan-out.
struct SampleFixture {
  SampleFixture(const tech::Technology& t, const synth::OpAmpDesign& design);

  // The bench of sample `index`: `base` with the mismatch draw of
  // util::RngStream(seed, index) applied to every device's VT.
  synth::OpenLoopBench draw(std::uint64_t seed, std::size_t index) const;

  synth::OpenLoopBench base;     // nominal open-loop bench
  std::vector<double> sigma_vt;  // per-device sigma(VT), mosfets() order
  // Nominal operating point every offset null warm-starts from; empty
  // when it did not converge.
  std::vector<double> nominal;
  // Newton LU plan every sample's DC solves start from: the one the
  // nominal operating point ended with (unplanned when it failed).
  num::LuPlan plan;
  // The AC grid, synth::open_loop_freqs: the verification sweep's grid.
  std::vector<double> freqs;
};

// Monte-Carlo analysis of an already-synthesized result.  Fails (ok ==
// false, error set) when the synthesis selected no feasible design or
// params.samples < 1; zero converged samples is reported as yield 0, not
// an error.
YieldResult analyze_yield(const tech::Technology& t,
                          const synth::SynthesisResult& synthesis,
                          const YieldParams& params);

// Synthesize `spec` first (exactly synthesize_opamp), then analyze.
YieldResult run_yield(const tech::Technology& t, const core::OpAmpSpec& spec,
                      const YieldParams& params,
                      const synth::SynthOptions& opts = {});

// Canonical oasys.result.v1 document: synth::result_json(r.synthesis)
// extended with a "yield" block.  Deterministic bytes; what the golden
// suite, shard conformance, and bench self-checks compare.
std::string yield_result_json(const YieldResult& r);

}  // namespace oasys::yield
