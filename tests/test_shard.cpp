// Shard-aware conformance + fault-path suite for src/shard/.
//
// The contract under test: `shard` is `batch` across processes.  Every
// ok() outcome must be bit-for-bit what a single SynthesisService returns
// (compared via the canonical oasys.result.v1 rendering), at every worker
// count; merged deterministic metrics must be worker-count-invariant; a
// worker that dies mid-batch must surface as per-spec errors plus a
// non-ok report, never as a hang or a silent partial success; and the
// wire layer must reject malformed bytes instead of crashing on them.
//
// Process-spawning tests exec the real CLI binary (OASYS_CLI_PATH, wired
// by CMake), so the conversation exercised here is exactly the shipped
// one.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/service.h"
#include "shard/coordinator.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "spice/sim_options.h"
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

// ---- wire primitives --------------------------------------------------------

TEST(WireScalars, RoundTripAllTypes) {
  shard::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-1.5e-12);
  w.str("two-stage");
  w.boolean(true);
  w.boolean(false);

  shard::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1.5e-12);
  EXPECT_EQ(r.str(), "two-stage");
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(WireScalars, DoublesCarryExactBitPatterns) {
  // The determinism contract needs bit-for-bit doubles: NaN payloads,
  // signed zero, infinities, and denormals must all survive the wire.
  const double nan_payload =
      std::bit_cast<double>(0x7ff80000dead0001ull);
  const std::vector<double> values = {
      0.0,    -0.0,
      nan_payload, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -1.7976931348623157e308, 5e-6};
  shard::Writer w;
  for (const double v : values) w.f64(v);
  shard::Reader r(w.bytes());
  for (const double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(WireScalars, ReaderRejectsTruncationAndTrailingBytes) {
  shard::Writer w;
  w.u32(7);
  shard::Reader short_read(w.bytes());
  EXPECT_THROW(short_read.u64(), shard::WireError);

  shard::Reader trailing(w.bytes());
  trailing.u8();
  EXPECT_THROW(trailing.expect_end(), shard::WireError);

  // A string whose declared length exceeds the remaining bytes.
  shard::Writer bad;
  bad.u64(1000);  // length prefix
  bad.u8('x');
  shard::Reader r(bad.bytes());
  EXPECT_THROW(r.str(), shard::WireError);
}

// ---- struct round trips -----------------------------------------------------

TEST(WireStructs, SpecRoundTripsCanonically) {
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    shard::Writer w;
    shard::put_spec(w, spec);
    shard::Reader r(w.bytes());
    const core::OpAmpSpec back = shard::get_spec(r);
    r.expect_end();
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.canonical_string(), spec.canonical_string());
  }
}

TEST(WireStructs, SpecPreservesAdversarialDoubles) {
  core::OpAmpSpec spec = synth::paper_test_cases()[0];
  spec.noise_max = std::bit_cast<double>(0x7ff80000dead0001ull);  // NaN
  spec.offset_max = -0.0;
  spec.area_max = std::numeric_limits<double>::infinity();
  shard::Writer w;
  shard::put_spec(w, spec);
  shard::Reader r(w.bytes());
  const core::OpAmpSpec back = shard::get_spec(r);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.noise_max),
            std::bit_cast<std::uint64_t>(spec.noise_max));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.offset_max),
            std::bit_cast<std::uint64_t>(spec.offset_max));
  EXPECT_EQ(back.area_max, spec.area_max);
  // And the canonical fingerprint — the routing key — is unchanged.
  EXPECT_EQ(back.canonical_string(), spec.canonical_string());
}

TEST(WireStructs, TechnologyRoundTripsCanonically) {
  for (const tech::Technology& t :
       {tech::five_micron(), tech::three_micron()}) {
    shard::Writer w;
    shard::put_technology(w, t);
    shard::Reader r(w.bytes());
    const tech::Technology back = shard::get_technology(r);
    r.expect_end();
    EXPECT_EQ(back.canonical_string(), t.canonical_string());
  }
}

TEST(WireStructs, OptionsRoundTrip) {
  synth::SynthOptions o;
  o.rules_enabled = false;
  o.max_patches = 7;
  o.iref = 12.5e-6;
  o.pm_grace_deg = 3.25;
  o.jobs = 5;
  shard::Writer w;
  shard::put_synth_options(w, o);
  shard::Reader r(w.bytes());
  const synth::SynthOptions back = shard::get_synth_options(r);
  r.expect_end();
  EXPECT_EQ(synth::canonical_string(back), synth::canonical_string(o));
  EXPECT_EQ(back.jobs, o.jobs);  // jobs is outside the fingerprint

  service::ServiceOptions so;
  so.cache_enabled = false;
  so.cache_capacity = 3;
  so.queue_capacity = 9;
  shard::Writer w2;
  shard::put_service_options(w2, so);
  shard::Reader r2(w2.bytes());
  const service::ServiceOptions sback = shard::get_service_options(r2);
  r2.expect_end();
  EXPECT_EQ(sback.cache_enabled, so.cache_enabled);
  EXPECT_EQ(sback.cache_capacity, so.cache_capacity);
  EXPECT_EQ(sback.queue_capacity, so.queue_capacity);
}

TEST(WireStructs, OptionsCarryTranModeInWireAndFingerprint) {
  // The transient mode is semantically meaningful: it must survive the
  // wire (so a worker simulates in the coordinator's mode) and change the
  // options fingerprint (so fixed and adaptive results never share a
  // cache entry or a golden comparison).
  synth::SynthOptions o;
  o.tran_mode = sim::TranMode::kAdaptive;
  o.tran_rtol = 5e-4;
  o.tran_atol = 2e-7;
  shard::Writer w;
  shard::put_synth_options(w, o);
  shard::Reader r(w.bytes());
  const synth::SynthOptions back = shard::get_synth_options(r);
  r.expect_end();
  EXPECT_EQ(back.tran_mode, o.tran_mode);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.tran_rtol),
            std::bit_cast<std::uint64_t>(o.tran_rtol));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.tran_atol),
            std::bit_cast<std::uint64_t>(o.tran_atol));
  EXPECT_EQ(util::fnv1a64(synth::canonical_string(back)),
            util::fnv1a64(synth::canonical_string(o)));

  synth::SynthOptions fixed = o;
  fixed.tran_mode = sim::TranMode::kFixed;
  EXPECT_NE(synth::canonical_string(fixed), synth::canonical_string(o));
  synth::SynthOptions loose = o;
  loose.tran_rtol = 1e-2;
  EXPECT_NE(synth::canonical_string(loose), synth::canonical_string(o));
}

TEST(WireStructs, ResultRoundTripsBitForBit) {
  const tech::Technology t = tech::five_micron();
  const synth::SynthesisResult result =
      synth::synthesize_opamp(t, synth::paper_test_cases()[1], {});
  shard::Writer w;
  shard::put_result(w, result);
  shard::Reader r(w.bytes());
  const synth::SynthesisResult back = shard::get_result(r);
  r.expect_end();
  // Canonical rendering equality == bitwise equality of everything the
  // determinism contract covers.
  EXPECT_EQ(synth::result_json(back), synth::result_json(result));
  // The narrative travels too (it is just excluded from the rendering).
  EXPECT_EQ(back.candidates.size(), result.candidates.size());
  for (std::size_t i = 0; i < back.candidates.size(); ++i) {
    EXPECT_EQ(back.candidates[i].log.to_string(),
              result.candidates[i].log.to_string());
    EXPECT_EQ(back.candidates[i].trace.events.size(),
              result.candidates[i].trace.events.size());
  }
}

TEST(WireStructs, MetricsSnapshotRoundTrips) {
  obs::Registry::global().counter("wiretest.counter").add(42);
  obs::Registry::global().gauge("wiretest.gauge").set(2.5);
  obs::Registry::global()
      .duration_histogram("wiretest.hist")
      .observe(1e-3);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  shard::Writer w;
  shard::put_metrics_snapshot(w, snap);
  shard::Reader r(w.bytes());
  const obs::MetricsSnapshot back = shard::get_metrics_snapshot(r);
  r.expect_end();
  ASSERT_EQ(back.entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].name, snap.entries[i].name);
    EXPECT_EQ(back.entries[i].kind, snap.entries[i].kind);
    EXPECT_EQ(back.entries[i].deterministic, snap.entries[i].deterministic);
    EXPECT_EQ(back.entries[i].counter, snap.entries[i].counter);
    EXPECT_EQ(back.entries[i].gauge, snap.entries[i].gauge);
    EXPECT_EQ(back.entries[i].histogram.counts,
              snap.entries[i].histogram.counts);
    EXPECT_EQ(back.entries[i].histogram.sum, snap.entries[i].histogram.sum);
  }
}

TEST(WireStructs, YieldParamsRoundTripWithoutTheJobsKnob) {
  yield::YieldParams p;
  p.samples = 200;
  p.seed = 0xfeedfacecafebeefull;
  p.jobs = 7;
  shard::Writer w;
  shard::put_yield_params(w, p);
  shard::Reader r(w.bytes());
  const yield::YieldParams back = shard::get_yield_params(r);
  r.expect_end();
  EXPECT_EQ(back.samples, p.samples);
  EXPECT_EQ(back.seed, p.seed);
  // jobs is a local execution knob, never wire state: the receiver
  // applies its own configuration.
  EXPECT_EQ(back.jobs, 0u);
}

TEST(WireStructs, YieldParamsRejectsCorruptSampleCounts) {
  for (const std::uint64_t samples :
       {std::uint64_t{0}, std::uint64_t{0x80000000ull},
        ~std::uint64_t{0}}) {
    shard::Writer w;
    w.u64(samples);
    w.u64(1);  // seed
    shard::Reader r(w.bytes());
    EXPECT_THROW(shard::get_yield_params(r), shard::WireError)
        << samples;
  }
}

TEST(WireStructs, YieldResultRoundTripsBitForBit) {
  const tech::Technology t = tech::five_micron();
  yield::YieldParams p;
  p.samples = 12;
  p.seed = 5;
  const yield::YieldResult result =
      yield::run_yield(t, synth::paper_test_cases()[1], p);
  shard::Writer w;
  shard::put_yield_result(w, result);
  shard::Reader r(w.bytes());
  const yield::YieldResult back = shard::get_yield_result(r);
  r.expect_end();
  // Canonical rendering equality covers the full determinism contract:
  // the embedded synthesis, every counter, and every metric double.
  EXPECT_EQ(yield::yield_result_json(back),
            yield::yield_result_json(result));
  EXPECT_EQ(back.ok, result.ok);
  EXPECT_EQ(back.pass_count, result.pass_count);
  EXPECT_EQ(back.metrics.size(), result.metrics.size());
}

TEST(WireStructs, ConfigRoundTripsAndChecksVersion) {
  shard::WorkerConfig c;
  c.shard = 3;
  c.tech = tech::three_micron();
  c.synth.iref = 10e-6;
  c.service.cache_capacity = 17;
  c.tech_hash = util::fnv1a64(c.tech.canonical_string());
  c.opts_hash = util::fnv1a64(synth::canonical_string(c.synth));
  shard::Writer w;
  shard::put_config(w, c);
  shard::Reader r(w.bytes());
  const shard::WorkerConfig back = shard::get_config(r);
  r.expect_end();
  EXPECT_EQ(back.shard, c.shard);
  EXPECT_EQ(back.tech.canonical_string(), c.tech.canonical_string());
  EXPECT_EQ(back.tech_hash, c.tech_hash);
  EXPECT_EQ(back.opts_hash, c.opts_hash);

  shard::WorkerConfig bad = c;
  bad.version = shard::kWireVersion + 1;
  shard::Writer w2;
  shard::put_config(w2, bad);
  shard::Reader r2(w2.bytes());
  EXPECT_THROW(shard::get_config(r2), shard::WireError);
}

// ---- frame I/O --------------------------------------------------------------

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    close_read();
    close_write();
  }
  int read_fd() const { return fds[0]; }
  int write_fd() const { return fds[1]; }
  void close_read() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(WireFrames, RoundTripAndCleanEof) {
  Pipe p;
  ASSERT_TRUE(
      shard::write_frame(p.write_fd(), shard::FrameType::kRequest, "abc"));
  ASSERT_TRUE(shard::write_frame(p.write_fd(), shard::FrameType::kDone, ""));
  p.close_write();
  shard::Frame f;
  ASSERT_TRUE(shard::read_frame(p.read_fd(), &f));
  EXPECT_EQ(f.type, shard::FrameType::kRequest);
  EXPECT_EQ(f.payload, "abc");
  ASSERT_TRUE(shard::read_frame(p.read_fd(), &f));
  EXPECT_EQ(f.type, shard::FrameType::kDone);
  // Clean EOF at a frame boundary: absence of a frame, not an error.
  EXPECT_FALSE(shard::read_frame(p.read_fd(), &f));
}

TEST(WireFrames, RejectsBadMagic) {
  Pipe p;
  const char garbage[] = "this is not a frame header at all.......";
  ASSERT_EQ(::write(p.write_fd(), garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  p.close_write();
  shard::Frame f;
  EXPECT_THROW(shard::read_frame(p.read_fd(), &f), shard::WireError);
}

TEST(WireFrames, RejectsTruncationMidFrame) {
  Pipe p;
  shard::Writer header;
  header.u32(shard::kWireMagic);
  header.u32(static_cast<std::uint32_t>(shard::FrameType::kResult));
  header.u64(100);  // promises 100 payload bytes...
  const std::string& bytes = header.bytes();
  ASSERT_EQ(::write(p.write_fd(), bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  const char partial[] = "only a few";  // ...delivers 10
  ASSERT_EQ(::write(p.write_fd(), partial, 10), 10);
  p.close_write();
  shard::Frame f;
  EXPECT_THROW(shard::read_frame(p.read_fd(), &f), shard::WireError);
}

TEST(WireFrames, RejectsOversizedLength) {
  Pipe p;
  shard::Writer header;
  header.u32(shard::kWireMagic);
  header.u32(static_cast<std::uint32_t>(shard::FrameType::kResult));
  header.u64(shard::kMaxPayload + 1);
  const std::string& bytes = header.bytes();
  ASSERT_EQ(::write(p.write_fd(), bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  p.close_write();
  shard::Frame f;
  EXPECT_THROW(shard::read_frame(p.read_fd(), &f), shard::WireError);
}

// ---- shard key stability ----------------------------------------------------

TEST(ShardKey, Mix64PinnedValues) {
  // Pinned outputs: the router's partition must never move between
  // builds, platforms, or PRs — a silent change would strand every
  // distributed cache.
  EXPECT_EQ(util::mix64(0), 0u);
  EXPECT_EQ(util::mix64(1), 0x5692161d100b05e5ull);
  EXPECT_EQ(util::fnv1a64("caseA"), 0xa88f593b05ebd1b0ull);
  EXPECT_EQ(util::shard_index(util::fnv1a64("caseA"), 4), 3u);
  EXPECT_EQ(util::shard_index(util::fnv1a64("caseB"), 4), 0u);
}

TEST(ShardKey, SingleShardAbsorbsEverything) {
  for (std::uint64_t h : {0ull, 1ull, 0xffffffffffffffffull, 12345ull}) {
    EXPECT_EQ(util::shard_index(h, 1), 0u);
  }
}

TEST(ShardKey, PartitionIsReasonablyBalanced) {
  // FNV's low bits are weakly mixed; the mix64 finalizer is what makes
  // `% workers` usable.  1000 distinct keys over 4 shards: every shard
  // should see a healthy fraction (an unmixed FNV modulo would not).
  std::vector<std::size_t> load(4, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "spec-" + std::to_string(i);
    ++load[util::shard_index(util::fnv1a64(key), 4)];
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(load[i], 150u) << "shard " << i << " underloaded";
    EXPECT_LT(load[i], 350u) << "shard " << i << " overloaded";
  }
}

TEST(ShardKey, RouteMatchesServiceRequestKey) {
  // Routing and caching must agree on key bytes, or identical requests
  // stop co-locating and per-shard hit/miss behavior becomes
  // worker-count-dependent.
  const tech::Technology t = tech::five_micron();
  synth::SynthOptions opts;
  service::SynthesisService svc(t, opts);
  const std::string prefix =
      t.canonical_string() + "|" + synth::canonical_string(opts) + "|";
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    EXPECT_EQ(prefix + spec.canonical_string(), svc.request_key(spec));
    const std::size_t s2 = shard::route(svc.request_key(spec), 2);
    const std::size_t s4 = shard::route(svc.request_key(spec), 4);
    EXPECT_LT(s2, 2u);
    EXPECT_LT(s4, 4u);
  }
}

// ---- cross-process conformance ----------------------------------------------

shard::ShardOptions cli_shard_options(std::size_t workers) {
  shard::ShardOptions o;
  o.workers = workers;
  o.worker_command = OASYS_CLI_PATH;
  return o;
}

std::vector<core::OpAmpSpec> conformance_specs() {
  // The paper corpus plus repeats: repeats exercise each worker's private
  // cache, and their outcomes must be byte-identical to the originals'.
  std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  specs.push_back(specs[0]);
  specs.push_back(specs[1]);
  specs.push_back(specs[0]);
  return specs;
}

TEST(ShardConformance, BitwiseEquivalentToServiceAtEveryWorkerCount) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = conformance_specs();

  service::SynthesisService reference(t, {});
  const std::vector<synth::SynthesisResult> expected =
      reference.run_batch(specs);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    const shard::ShardReport report =
        shard::run_sharded_batch(t, {}, specs, cli_shard_options(workers));
    ASSERT_TRUE(report.infra_ok()) << "workers=" << workers;
    ASSERT_EQ(report.outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(report.outcomes[i].ok())
          << "workers=" << workers << " spec " << i << ": "
          << report.outcomes[i].error;
      EXPECT_EQ(synth::result_json(report.outcomes[i].result),
                synth::result_json(expected[i]))
          << "workers=" << workers << " spec " << i;
    }
    // Identical requests co-locate: every repeat is served by its home
    // shard's single-flight dedup (all requests land before the drain),
    // never recomputed.
    std::uint64_t deduped = 0;
    std::uint64_t misses = 0;
    for (const shard::WorkerSummary& w : report.workers) {
      deduped += w.stats.hits + w.stats.dedup_joins;
      misses += w.stats.misses;
    }
    EXPECT_EQ(deduped, 3u) << "workers=" << workers;
    EXPECT_EQ(misses, specs.size() - 3) << "workers=" << workers;
  }
}

TEST(ShardConformance, AdaptiveTranBitwiseEquivalentAtEveryWorkerCount) {
  // The adaptive integrator's step sequence is private to each transient,
  // so sharding must not perturb it: adaptive results are bit-for-bit the
  // local service's at every worker count, exactly like fixed-mode ones.
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = conformance_specs();
  synth::SynthOptions opts;
  opts.tran_mode = sim::TranMode::kAdaptive;
  opts.tran_rtol = 1e-3;
  opts.tran_atol = 1e-6;

  // The engine reads the process-default slots (SynthOptions carries the
  // resolved values for the wire and the fingerprint; workers apply them
  // via apply_config_defaults).  Mirror that application locally for the
  // in-process reference, and restore afterwards.
  const sim::TranMode saved_mode = sim::tran_mode_default();
  const sim::TranTolerance saved_tol = sim::tran_tolerance_default();
  sim::set_tran_mode_default(opts.tran_mode);
  sim::set_tran_tolerance_default(opts.tran_rtol, opts.tran_atol);

  service::SynthesisService reference(t, opts);
  const std::vector<synth::SynthesisResult> expected =
      reference.run_batch(specs);

  sim::set_tran_mode_default(saved_mode);
  sim::set_tran_tolerance_default(saved_tol.rtol, saved_tol.atol);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    const shard::ShardReport report =
        shard::run_sharded_batch(t, opts, specs, cli_shard_options(workers));
    ASSERT_TRUE(report.infra_ok()) << "workers=" << workers;
    ASSERT_EQ(report.outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(report.outcomes[i].ok())
          << "workers=" << workers << " spec " << i << ": "
          << report.outcomes[i].error;
      EXPECT_EQ(synth::result_json(report.outcomes[i].result),
                synth::result_json(expected[i]))
          << "workers=" << workers << " spec " << i;
    }
  }
}

// Comparable view of the deterministic section of a merged snapshot.
std::vector<std::string> deterministic_lines(
    const obs::MetricsSnapshot& snap) {
  std::vector<std::string> lines;
  for (const obs::MetricEntry& e : snap.entries) {
    if (!e.deterministic) continue;
    std::string line = e.name + "=";
    switch (e.kind) {
      case obs::MetricKind::kCounter:
        line += std::to_string(e.counter);
        break;
      case obs::MetricKind::kGauge:
        line += std::to_string(e.gauge);
        break;
      case obs::MetricKind::kHistogram:
        line += std::to_string(e.histogram.count) + "/" +
                std::to_string(e.histogram.sum);
        for (const std::uint64_t c : e.histogram.counts) {
          line += ',';
          line += std::to_string(c);
        }
        break;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(ShardConformance, MergedDeterministicMetricsAreWorkerCountInvariant) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = conformance_specs();

  std::vector<std::vector<std::string>> sections;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const shard::ShardReport report =
        shard::run_sharded_batch(t, {}, specs, cli_shard_options(workers));
    ASSERT_TRUE(report.infra_ok());
    sections.push_back(deterministic_lines(report.merged_metrics));

    // The reflags that make invariance possible: exec.regions (one drain
    // per worker) and every shard.<i>.* entry live in the timing section.
    for (const obs::MetricEntry& e : report.merged_metrics.entries) {
      if (e.name == "exec.regions" ||
          e.name.rfind("shard.", 0) == 0) {
        EXPECT_FALSE(e.deterministic) << e.name;
      }
    }
    // Per-shard counters cover every worker and sum to the workload.
    std::uint64_t routed = 0;
    for (std::size_t i = 0; i < workers; ++i) {
      const obs::MetricEntry* req = report.merged_metrics.find(
          "shard." + std::to_string(i) + ".requests");
      ASSERT_NE(req, nullptr) << "workers=" << workers << " shard " << i;
      routed += req->counter;
    }
    EXPECT_EQ(routed, specs.size());
  }
  EXPECT_FALSE(sections[0].empty());
  EXPECT_EQ(sections[0], sections[1]);
  EXPECT_EQ(sections[0], sections[2]);
}

TEST(ShardConformance, MixedYieldBatchBitwiseEquivalentAtEveryWorkerCount) {
  const tech::Technology t = tech::five_micron();
  // Mixed traffic with repeats: synth and yield of the same spec must
  // co-locate (plain-key routing), and a repeated yield request must be
  // answered from its home worker's yield cache with identical bytes.
  std::vector<yield::Request> requests;
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    yield::Request synth_req;
    synth_req.spec = spec;
    requests.push_back(synth_req);
    yield::Request yield_req;
    yield_req.spec = spec;
    yield_req.is_yield = true;
    yield_req.params.samples = 12;
    yield_req.params.seed = 5;
    requests.push_back(yield_req);
  }
  requests.push_back(requests[1]);  // repeated yield request

  yield::YieldService reference(t, {});
  const std::vector<yield::Outcome> expected =
      reference.run_mixed(requests);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    const shard::ShardReport report = shard::run_sharded_requests(
        t, {}, requests, cli_shard_options(workers));
    ASSERT_TRUE(report.infra_ok()) << "workers=" << workers;
    ASSERT_EQ(report.outcomes.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const shard::ShardOutcome& o = report.outcomes[i];
      ASSERT_TRUE(o.ok()) << "workers=" << workers << " request " << i
                          << ": " << o.error;
      ASSERT_EQ(o.is_yield, requests[i].is_yield);
      if (o.is_yield) {
        EXPECT_EQ(yield::yield_result_json(o.yield),
                  yield::yield_result_json(expected[i].yield))
            << "workers=" << workers << " request " << i;
      } else {
        EXPECT_EQ(synth::result_json(o.result),
                  synth::result_json(expected[i].result))
            << "workers=" << workers << " request " << i;
      }
    }
    // Co-location: the synth and yield requests for one spec always land
    // on the same shard.
    for (std::size_t i = 0; i + 1 < report.outcomes.size(); i += 2) {
      EXPECT_EQ(report.outcomes[i].shard, report.outcomes[i + 1].shard)
          << "workers=" << workers << " pair " << i;
    }
  }
}

TEST(ShardConformance, MoreWorkersThanSpecsStillConforms) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = {synth::paper_test_cases()[0]};
  const shard::ShardReport report =
      shard::run_sharded_batch(t, {}, specs, cli_shard_options(6));
  ASSERT_TRUE(report.infra_ok());
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].ok());
  EXPECT_EQ(synth::result_json(report.outcomes[0].result),
            synth::result_json(
                synth::synthesize_opamp(t, specs[0], {})));
}

// ---- fault paths ------------------------------------------------------------

struct ScopedEnv {
  std::string name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    ::setenv(n, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

TEST(ShardFaults, WorkerKilledMidBatchFailsItsSpecsOnly) {
  const ScopedEnv crash("OASYS_SHARD_TEST_CRASH", "B");
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  const shard::ShardReport report =
      shard::run_sharded_batch(t, {}, specs, cli_shard_options(2));

  EXPECT_FALSE(report.infra_ok());
  ASSERT_EQ(report.outcomes.size(), specs.size());
  std::size_t victim_shard = specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == "B") victim_shard = report.outcomes[i].shard;
  }
  ASSERT_LT(victim_shard, 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const shard::ShardOutcome& o = report.outcomes[i];
    if (specs[i].name == "B") {
      // The crash fires before B's kResult: B must be an error, never a
      // partial success.
      EXPECT_FALSE(o.ok());
      EXPECT_NE(o.error.find("died before returning"), std::string::npos)
          << o.error;
    } else if (o.shard != victim_shard) {
      // Healthy shards are unaffected.
      EXPECT_TRUE(o.ok()) << o.error;
    }
  }
  // The summary names the decoded exit of the crash hook.
  const shard::WorkerSummary& victim = report.workers[victim_shard];
  EXPECT_FALSE(victim.ok());
  EXPECT_FALSE(victim.timed_out);
  EXPECT_NE(victim.error.find(util::format("exited with status %d",
                                           shard::kCrashHookExitCode)),
            std::string::npos)
      << victim.error;
  // The loop counts every per-spec error it answered for the dead worker.
  const obs::MetricEntry* errors =
      report.merged_metrics.find("serve.worker_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_FALSE(errors->deterministic);
  EXPECT_GE(errors->counter, 1u);
}

TEST(ShardFaults, WorkerKilledOnReceiveFailsItsWholeShard) {
  const ScopedEnv crash("OASYS_SHARD_TEST_CRASH", "A:recv");
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  const shard::ShardReport report =
      shard::run_sharded_batch(t, {}, specs, cli_shard_options(2));

  EXPECT_FALSE(report.infra_ok());
  std::size_t victim_shard = 2;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == "A") victim_shard = report.outcomes[i].shard;
  }
  ASSERT_LT(victim_shard, 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const shard::ShardOutcome& o = report.outcomes[i];
    if (o.shard == victim_shard) {
      EXPECT_FALSE(o.ok()) << specs[i].name;
      EXPECT_NE(o.error.find("died before returning a result"),
                std::string::npos)
          << o.error;
    } else {
      EXPECT_TRUE(o.ok()) << o.error;
    }
  }
}

void noop_sigpipe_handler(int) {}

TEST(ShardFaults, CallerSigpipeHandlerSurvivesTheBatch) {
  // run_sharded_batch ignores SIGPIPE for the duration of the run so a
  // dying worker surfaces as EPIPE, but an embedding application's own
  // handler must be back in place when it returns.
  using Handler = void (*)(int);
  const Handler prev = std::signal(SIGPIPE, &noop_sigpipe_handler);
  ASSERT_NE(prev, SIG_ERR);
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = {synth::paper_test_cases()[0]};
  const shard::ShardReport report =
      shard::run_sharded_batch(t, {}, specs, cli_shard_options(1));
  EXPECT_TRUE(report.infra_ok());
  const Handler after = std::signal(SIGPIPE, prev);
  EXPECT_EQ(after, &noop_sigpipe_handler);
}

TEST(ShardFaults, WedgedWorkerIsKilledAtTheDeadline) {
  // A worker that is alive but silent (the `:wedge` hook parks it in a
  // pause() loop before its first result) must not block collection
  // forever: with --worker-timeout armed the coordinator kills it at the
  // deadline and answers its specs with a deterministic timeout error.
  const ScopedEnv crash("OASYS_SHARD_TEST_CRASH", "A:wedge");
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  shard::ShardOptions o = cli_shard_options(2);
  o.worker_timeout_s = 1.0;
  const shard::ShardReport report =
      shard::run_sharded_batch(t, {}, specs, o);

  EXPECT_FALSE(report.infra_ok());
  std::size_t victim_shard = 2;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == "A") victim_shard = report.outcomes[i].shard;
  }
  ASSERT_LT(victim_shard, 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const shard::ShardOutcome& out = report.outcomes[i];
    if (out.shard == victim_shard) {
      EXPECT_FALSE(out.ok()) << specs[i].name;
      EXPECT_NE(out.error.find("timed out"), std::string::npos)
          << out.error;
    } else {
      EXPECT_TRUE(out.ok()) << out.error;
    }
  }
  const shard::WorkerSummary& victim = report.workers[victim_shard];
  EXPECT_FALSE(victim.ok());
  EXPECT_TRUE(victim.timed_out);
  // The deadline kill is SIGKILL, and the summary says so.
  EXPECT_NE(victim.error.find(util::format("killed by signal %d", SIGKILL)),
            std::string::npos)
      << victim.error;
  // The loop counts the kill in its timing-section counters.
  const obs::MetricEntry* timeouts =
      report.merged_metrics.find("serve.worker_timeouts");
  ASSERT_NE(timeouts, nullptr);
  EXPECT_FALSE(timeouts->deterministic);
  EXPECT_EQ(timeouts->counter, 1u);
}

TEST(ShardFaults, GarbageSpeakingWorkerIsRejectedNotCrashedOn) {
  // /bin/echo prints its argument and exits: the coordinator reads bytes
  // that are not a frame, and must fail that worker cleanly.
  if (::access("/bin/echo", X_OK) != 0) GTEST_SKIP();
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  shard::ShardOptions o = cli_shard_options(1);
  o.worker_command = "/bin/echo";
  const shard::ShardReport report =
      shard::run_sharded_batch(t, {}, specs, o);
  EXPECT_FALSE(report.infra_ok());
  for (const shard::ShardOutcome& out : report.outcomes) {
    EXPECT_FALSE(out.ok());
  }
  EXPECT_NE(report.workers[0].error.find("broke the protocol"),
            std::string::npos)
      << report.workers[0].error;
}

TEST(ShardFaults, NonexecutableWorkerCommandFailsCleanly) {
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = {synth::paper_test_cases()[0]};
  shard::ShardOptions o = cli_shard_options(2);
  o.worker_command = "/nonexistent/oasys-worker";
  const shard::ShardReport report =
      shard::run_sharded_batch(t, {}, specs, o);
  EXPECT_FALSE(report.infra_ok());
  EXPECT_FALSE(report.outcomes[0].ok());
  for (const shard::WorkerSummary& w : report.workers) {
    EXPECT_FALSE(w.ok());
    // exec failure exits 127 in the forked child.
    EXPECT_NE(w.error.find("exited with status 127"), std::string::npos)
        << w.error;
  }
}

TEST(ShardFaults, InvalidOptionsThrow) {
  const tech::Technology t = tech::five_micron();
  shard::ShardOptions zero = cli_shard_options(0);
  EXPECT_THROW(shard::run_sharded_batch(t, {}, {}, zero),
               std::invalid_argument);
  shard::ShardOptions no_cmd = cli_shard_options(1);
  no_cmd.worker_command.clear();
  EXPECT_THROW(shard::run_sharded_batch(t, {}, {}, no_cmd),
               std::invalid_argument);
}

TEST(ShardConformance, EmptyBatchReturnsPromptlyAndReapsEveryWorker) {
  // Zero requests still spawn the pool and run one session whose kRun
  // routed nothing; the loop must answer it, drain, and reap at once.
  const tech::Technology t = tech::five_micron();
  for (const std::size_t workers : {1u, 3u}) {
    const auto start = std::chrono::steady_clock::now();
    const shard::ShardReport report =
        shard::run_sharded_batch(t, {}, {}, cli_shard_options(workers));
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    EXPECT_TRUE(report.outcomes.empty()) << "workers=" << workers;
    EXPECT_TRUE(report.infra_ok()) << "workers=" << workers;
    ASSERT_EQ(report.workers.size(), workers);
    for (const shard::WorkerSummary& w : report.workers) {
      EXPECT_TRUE(w.ok()) << w.error;
      EXPECT_EQ(w.requests, 0u);
    }
    EXPECT_LT(elapsed_s, 30.0) << "workers=" << workers;
    // Every child is reaped: no zombie (and no live worker) is left.
    int status = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << "workers=" << workers;
    EXPECT_EQ(errno, ECHILD);
  }
}

// ---- worker-side rejection of malformed input -------------------------------

// Feeds raw bytes to the worker loop as its stdin and returns its exit
// code.  All writes land before the call, so the single-threaded read
// phase of the worker cannot deadlock (none of these inputs reaches a
// kRun, so the worker writes nothing to out).
int run_worker_on_bytes(const std::string& bytes) {
  Pipe in;
  Pipe out;
  EXPECT_EQ(::write(in.write_fd(), bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  in.close_write();
  const int rc = shard::worker_session_main(in.read_fd(), out.write_fd());
  out.close_write();
  return rc;
}

std::string piped_frame_bytes(shard::FrameType type, const std::string& payload) {
  Pipe p;
  EXPECT_TRUE(shard::write_frame(p.write_fd(), type, payload));
  p.close_write();
  std::string all;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(p.read_fd(), buf, sizeof(buf))) > 0) {
    all.append(buf, static_cast<std::size_t>(n));
  }
  return all;
}

TEST(ShardWorker, RejectsGarbageInsteadOfCrashing) {
  EXPECT_NE(run_worker_on_bytes("complete garbage, not a frame at all"), 0);
}

TEST(ShardWorker, RejectsTruncatedConfig) {
  std::string bytes =
      piped_frame_bytes(shard::FrameType::kConfig, std::string(40, '\0'));
  EXPECT_NE(run_worker_on_bytes(bytes), 0);
  // Truncation mid-frame, too.
  bytes.resize(bytes.size() / 2);
  EXPECT_NE(run_worker_on_bytes(bytes), 0);
}

TEST(ShardWorker, RejectsWrongFirstFrame) {
  EXPECT_NE(run_worker_on_bytes(piped_frame_bytes(shard::FrameType::kRun, "")),
            0);
}

TEST(ShardWorker, RefusesOnFingerprintMismatch) {
  shard::WorkerConfig c;
  c.tech = tech::five_micron();
  c.tech_hash = util::fnv1a64(c.tech.canonical_string()) ^ 1;  // drifted
  c.opts_hash = util::fnv1a64(synth::canonical_string(c.synth));
  shard::Writer w;
  shard::put_config(w, c);
  EXPECT_NE(run_worker_on_bytes(
                piped_frame_bytes(shard::FrameType::kConfig, w.bytes())),
            0);
}

std::string valid_config_bytes() {
  shard::WorkerConfig c;
  c.tech = tech::five_micron();
  c.tech_hash = util::fnv1a64(c.tech.canonical_string());
  c.opts_hash = util::fnv1a64(synth::canonical_string(c.synth));
  shard::Writer w;
  shard::put_config(w, c);
  return piped_frame_bytes(shard::FrameType::kConfig, w.bytes());
}

TEST(ShardWorker, EofMidCycleIsAnError) {
  // A request without its kRun: the cycle never completes.
  shard::Writer w;
  w.u64(0);
  shard::put_spec(w, synth::paper_test_cases()[0]);
  shard::put_trace_context(w, shard::TraceContext{});
  EXPECT_NE(run_worker_on_bytes(
                valid_config_bytes() +
                piped_frame_bytes(shard::FrameType::kRequest, w.bytes())),
            0);
}

TEST(ShardWorker, EofAtCycleBoundaryIsACleanDrain) {
  // kConfig then EOF is a session that ends before its first cycle: the
  // clean drain the coordinator and the spawn probe both rely on.
  EXPECT_EQ(run_worker_on_bytes(valid_config_bytes()), 0);
}

}  // namespace
}  // namespace oasys
