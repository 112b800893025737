// The four workloads, the timed loop, and the end-to-end and per-layer
// metrics computed from it (see README.md for why each workload exists).
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "exec/executor.h"
#include "probes.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/coordinator.h"
#include "synth/result_json.h"
#include "tech/builtin.h"
#include "util/rng.h"
#include "util/text.h"

namespace perfbench {

namespace {

// Setup runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;
// Reference computation in setup fans out over at most four threads, and
// never more than the host has; the timed loop itself never runs more
// than four.
std::size_t setup_lanes() { return std::min<std::size_t>(4, exec::hardware_jobs()); }
// Share of a traced run spent untraced first, to size trace.overhead_ratio.
constexpr double kUntracedShare = 0.4;
// Designs per workload that the simulator / LU / MOS probes run on.
constexpr std::size_t kProbeDesigns = 6;

// End-to-end times are reported at a reference host speed: each is scaled
// by kReferenceProbeUs over the HostProbe reading taken after its call.
// On a shared host the speed of the same code swings by up to ~1.8x over
// minutes, and the probe follows it (one seed's p50 ranged 35% over six
// runs raw, 9% scaled); a change to the program under test moves the
// workload and not the probe.  80 us is the probe on an unloaded 4-vCPU
// 2.1 GHz Xeon.
constexpr double kReferenceProbeUs = 80.0;
// A call's probe is the median over the calls within this many of it, so
// that one disturbed probe does not rescale its call.
constexpr std::size_t kProbeWindow = 10;

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

synth::SynthOptions serial_opts() {
  synth::SynthOptions o;
  o.jobs = 1;
  return o;
}

const tech::Technology& tech5() {
  static const tech::Technology t = tech::five_micron();
  return t;
}

// One timed call into a workload's public entry point.
struct Call {
  double wall_s = 0.0;
  std::size_t answered = 0;  // requests the call answered (or attempted)
  std::size_t failed = 0;    // failed or mismatched its reference
  double units = 0.0;        // work completed, in the workload's unit
  double check_cpu_s = 0.0;  // thread CPU spent checking, not serving
};

// What the traced phase gathers besides spans.
struct LayerData {
  CounterTotals ctr;  // registry deltas around requests, or worker deltas
  double answered = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double lanes = 1.0;         // exec lanes a request may use
  double noise_points = 0.0;  // complex factorizations not in sim.ac.points
  double replay_samples = 0.0;  // Monte-Carlo samples the replays analyzed
  std::vector<double> overhead_ms;  // serve / shard: round trip - compute
  double wire_encode_us = 0.0, wire_decode_us = 0.0, wire_bytes = 0.0;
  double wire_n = 0.0;
  std::vector<double> spawn_ms;
  double shared_hits = 0.0, shared_misses = 0.0, respawns = 0.0;
};

// Counts one answered request, failed when `mismatch` is set; the first
// mismatch of a run is reported on stderr.
void tally(Call& c, const std::string& mismatch, std::uint64_t index,
           bool* reported) {
  ++c.answered;
  if (mismatch.empty()) return;
  ++c.failed;
  if (!*reported) {
    std::fprintf(stderr, "MISMATCH at request %llu: %s\n",
                 static_cast<unsigned long long>(index), mismatch.c_str());
    *reported = true;
  }
}

// Deterministically shuffles each block of `block` consecutive items.
template <typename T>
void shuffle_blocks(std::vector<T>& v, std::size_t block, std::uint64_t seed) {
  for (std::size_t b = 0; b * block < v.size(); ++b) {
    util::RngStream rng(seed, 0x51ull << 32 | b);
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(v.size(), lo + block);
    for (std::size_t i = hi - 1; i > lo; --i) {
      const std::size_t j = lo + rng.next_u64() % (i - lo + 1);
      std::swap(v[i], v[j]);
    }
  }
}

// Blocks of `per_yield` synthesis requests and one yield request, each
// block shuffled by the seed.  Both inputs are A, B, C interleaved, so any
// three consecutive blocks are balanced over the paper cases.
std::vector<yield::Request> mixed_sequence(const std::vector<yield::Request>& synth,
                                           const std::vector<yield::Request>& yields,
                                           std::size_t per_yield, std::uint64_t seed) {
  if (synth.size() != per_yield * yields.size()) {
    throw std::logic_error("mixed_sequence: synthesis and yield counts do not match");
  }
  std::vector<yield::Request> out;
  for (std::size_t b = 0; b < yields.size(); ++b) {
    for (std::size_t k = 0; k < per_yield; ++k) out.push_back(synth[per_yield * b + k]);
    out.push_back(yields[b]);
  }
  shuffle_blocks(out, per_yield + 1, seed);
  return out;
}

std::vector<yield::Request> slice(const std::vector<yield::Request>& v,
                                  std::size_t lo, std::size_t hi) {
  return {v.begin() + static_cast<std::ptrdiff_t>(lo),
          v.begin() + static_cast<std::ptrdiff_t>(hi)};
}

// In-process YieldService outcomes for `reqs`, one service per lane.
std::vector<std::string> reference_outcomes(const std::vector<yield::Request>& reqs,
                                            std::vector<yield::Outcome>* keep) {
  std::vector<std::unique_ptr<yield::YieldService>> svc;
  for (std::size_t l = 0; l < exec::lane_count(reqs.size(), setup_lanes()); ++l) {
    svc.push_back(std::make_unique<yield::YieldService>(tech5(), serial_opts()));
  }
  std::vector<yield::Outcome> out(reqs.size());
  exec::parallel_for_lanes(
      reqs.size(),
      [&](std::size_t i, std::size_t lane) {
        out[i] = svc[lane]->run_mixed({reqs[i]}).front();
      },
      setup_lanes());
  std::vector<std::string> json;
  for (const yield::Outcome& o : out) {
    if (!o.ok()) throw std::runtime_error("reference request failed: " + o.error);
    json.push_back(yield::outcome_json(o));
  }
  if (keep != nullptr) *keep = std::move(out);
  return json;
}

const synth::OpAmpDesign& best_design(const yield::Outcome& o) {
  const synth::SynthesisResult& r = o.is_yield ? o.yield.synthesis : o.result;
  if (r.best() == nullptr) throw std::runtime_error("no feasible design");
  return *r.best();
}

// Traced-run replay of requests in this process: the compute the daemon
// or fleet had to do, as the critical path over its workers (request j
// on worker[j], the one that answered it).  Returns milliseconds.
double replay_critical_ms(const std::vector<yield::Request>& reqs,
                          const std::vector<std::size_t>& worker, Tracer& tr,
                          LayerData& ld) {
  Tracer::Scope replay(tr, "replay.in_process");
  std::vector<double> per_worker(*std::max_element(worker.begin(), worker.end()) + 1, 0.0);
  for (std::size_t j = 0; j < reqs.size(); ++j) {
    const yield::Request& r = reqs[j];
    const Clock::time_point t0 = Clock::now();
    synth::SynthesisResult s;
    {
      Tracer::Scope sp(tr, "synth.synthesize_opamp");
      s = synth::synthesize_opamp(tech5(), r.spec, serial_opts());
    }
    if (r.is_yield) {
      yield::YieldParams p = r.params;
      p.jobs = 1;
      ld.replay_samples += static_cast<double>(p.samples);
      Tracer::Scope sp(tr, "yield.analyze_yield");
      yield::analyze_yield(tech5(), s, p);
    }
    per_worker[worker[j]] += 1e3 * seconds_since(t0);
  }
  return *std::max_element(per_worker.begin(), per_worker.end());
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* unit() const = 0;
  // Fixed tail percentile, with at least 10 samples beyond it at this
  // workload's call count in a 20-second run.  Where a higher one would
  // qualify, one with ~30 to 120 beyond is used: a tail resting on a few
  // dozen calls follows the slowest few specs of a seed's draw, and spread
  // 9% to 18% over seeds.
  virtual double tail_pct() const = 0;
  virtual void setup(const Options& opt) = 0;
  virtual void teardown() {}
  virtual void corrupt_reference() = 0;
  virtual std::size_t warmup_calls() const = 0;
  virtual Call call(std::uint64_t i, bool traced, Tracer& tr, LayerData& ld) = 0;
  virtual std::vector<synth::OpAmpDesign> probe_designs() const = 0;
  // CPU seconds and peak RSS of helper processes that live across calls
  // (the daemon's resident workers); reaped children count separately.
  virtual double helper_cpu_s() const { return 0.0; }
  virtual double helper_peak_rss_mb() const { return 0.0; }
};

// ---- verify_stream -------------------------------------------------------

// synthesize_opamp then measure_opamp on a distinct jittered spec per
// request, jobs = 1, no cache: the paper's spec-to-verified-design path.
class VerifyStream : public Workload {
 public:
  // Specs per paper case: enough that the slowest case-C specs, which set
  // the tail, are many rather than two or three of a seed's draw (at 40
  // per case the tail spread 13% over seeds).
  static constexpr std::size_t kPerCase = 120;

  const char* unit() const override { return "verified designs"; }
  // p98 rests on the slowest few case-C specs of a seed's draw and spread
  // 11% over seeds even with 120 specs per case.
  double tail_pct() const override { return 95.0; }

  void setup(const Options& opt) override {
    pool_ = stratify(generate_requests(opt, opt.out_dir + "/inputs-verify", 540,
                                       opt.seed, 0.0, 1),
                     kPerCase);
    ref_json_.assign(pool_.size(), "");
    ref_.assign(pool_.size(), {});
    designs_.assign(pool_.size(), {});
    exec::parallel_for(
        pool_.size(),
        [&](std::size_t i) {
          const synth::SynthesisResult r =
              synth::synthesize_opamp(tech5(), pool_[i].spec, serial_opts());
          if (r.best() == nullptr) throw std::runtime_error("reference infeasible");
          ref_json_[i] = synth::result_json(r);
          ref_[i] = synth::measure_opamp(*r.best(), tech5(), measure_opts());
          if (!ref_[i].ok) throw std::runtime_error("reference measure failed");
          designs_[i] = *r.best();
        },
        setup_lanes());
  }

  void corrupt_reference() override { ref_[0].perf.gain_db *= 1.0 + 1e-3; }
  std::size_t warmup_calls() const override { return 24; }

  Call call(std::uint64_t i, bool traced, Tracer& tr, LayerData& ld) override {
    const std::size_t k = i % pool_.size();
    Call c;
    synth::SynthesisResult r;
    synth::MeasuredOpAmp m;
    std::string err;
    {
      Tracer::Scope req(tr, "verify.request");
      const obs::MetricsSnapshot before =
          traced ? obs::Registry::global().snapshot() : obs::MetricsSnapshot{};
      try {
        {
          Tracer::Scope s(tr, "synth.synthesize_opamp");
          r = synth::synthesize_opamp(tech5(), pool_[k].spec, serial_opts());
        }
        if (r.best() == nullptr) throw std::runtime_error("no feasible design");
        Tracer::Scope s(tr, "synth.measure_opamp");
        m = synth::measure_opamp(*r.best(), tech5(), measure_opts());
      } catch (const std::exception& e) {
        err = e.what();
      }
      if (traced) ld.ctr.add_delta(before, obs::Registry::global().snapshot());
      c.wall_s = req.elapsed();
    }
    const double cpu0 = thread_cpu_s();
    if (err.empty() && synth::result_json(r) != ref_json_[k]) {
      err = "synthesis differs from the reference";
    }
    if (err.empty()) err = compare_measured(ref_[k], m);
    tally(c, err, i, &reported_);
    c.units = c.failed == 0 ? 1.0 : 0.0;
    if (traced && m.ok && m.perf.gbw > 0.0) {
      ld.noise_points += static_cast<double>(measure_opts().noise_points);
    }
    c.check_cpu_s = thread_cpu_s() - cpu0;
    return c;
  }

  std::vector<synth::OpAmpDesign> probe_designs() const override {
    return {designs_.begin(),
            designs_.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(kProbeDesigns, designs_.size()))};
  }

 private:
  static synth::MeasureOptions measure_opts() {
    synth::MeasureOptions o;
    o.jobs = 1;
    return o;
  }

  std::vector<yield::Request> pool_;
  std::vector<std::string> ref_json_;
  std::vector<synth::MeasuredOpAmp> ref_;
  std::vector<synth::OpAmpDesign> designs_;
  bool reported_ = false;
};

// ---- yield_mc ------------------------------------------------------------

// run_yield with 64 samples on a distinct spec per request, the sample
// fan-out over 2 exec lanes.
class YieldMc : public Workload {
 public:
  static constexpr std::size_t kLanes = 2;
  static constexpr std::size_t kPerCase = 8;

  const char* unit() const override { return "Monte-Carlo samples"; }
  double tail_pct() const override { return 90.0; }

  void setup(const Options& opt) override {
    if (check_yield_goldens() != 0) golden_failures_ = true;
    pool_ = stratify(generate_requests(opt, opt.out_dir + "/inputs-yield", 100,
                                       opt.seed, 1.0, 64),
                     kPerCase);
    ref_.assign(pool_.size(), {});
    exec::parallel_for(
        pool_.size(),
        [&](std::size_t i) {
          yield::YieldParams p = pool_[i].params;
          p.jobs = 1;
          ref_[i] = yield::run_yield(tech5(), pool_[i].spec, p, serial_opts());
          if (!ref_[i].ok) throw std::runtime_error("reference yield failed");
        },
        setup_lanes());
  }

  void corrupt_reference() override { ref_[0].metrics[0].mean *= 1.0 + 1e-3; }
  std::size_t warmup_calls() const override { return 6; }

  Call call(std::uint64_t i, bool traced, Tracer& tr, LayerData& ld) override {
    const std::size_t k = i % pool_.size();
    yield::YieldParams p = pool_[k].params;
    p.jobs = kLanes;
    ld.lanes = static_cast<double>(kLanes);
    Call c;
    yield::YieldResult y;
    std::string err;
    {
      Tracer::Scope req(tr, "yield.request");
      const obs::MetricsSnapshot before =
          traced ? obs::Registry::global().snapshot() : obs::MetricsSnapshot{};
      try {
        if (traced) {
          // run_yield is exactly synthesize_opamp then analyze_yield; the
          // traced run calls the two halves to time them apart.
          synth::SynthesisResult s;
          {
            Tracer::Scope sp(tr, "synth.synthesize_opamp");
            s = synth::synthesize_opamp(tech5(), pool_[k].spec, serial_opts());
          }
          Tracer::Scope sp(tr, "yield.analyze_yield");
          y = yield::analyze_yield(tech5(), s, p);
        } else {
          y = yield::run_yield(tech5(), pool_[k].spec, p, serial_opts());
        }
      } catch (const std::exception& e) {
        err = e.what();
      }
      if (traced) ld.ctr.add_delta(before, obs::Registry::global().snapshot());
      c.wall_s = req.elapsed();
    }
    const double cpu0 = thread_cpu_s();
    if (err.empty()) err = compare_yield(ref_[k], y);
    if (golden_failures_) err = "paper-case yield goldens differ";
    tally(c, err, i, &reported_);
    c.units = c.failed == 0 ? static_cast<double>(p.samples) : 0.0;
    c.check_cpu_s = thread_cpu_s() - cpu0;
    return c;
  }

  std::vector<synth::OpAmpDesign> probe_designs() const override {
    std::vector<synth::OpAmpDesign> out;
    for (std::size_t i = 0; i < std::min(kProbeDesigns, ref_.size()); ++i) {
      out.push_back(*ref_[i].synthesis.best());
    }
    return out;
  }

 private:
  std::vector<yield::Request> pool_;
  std::vector<yield::YieldResult> ref_;
  bool golden_failures_ = false;
  bool reported_ = false;
};

// ---- serve_mixed ---------------------------------------------------------

// An in-process serve::Server (2 resident workers, default shared tier and
// worker caches) and one client sending batches of 4 through
// run_connected_mixed.  Batch i holds two syntheses from a hot set smaller
// than the shared tier, the synthesis of the spec whose yield batch i-1
// asked for, and a fresh yield request with 8 samples (25% yield overall).
// The hot pair is answered by the shared tier.  The synthesis is new to
// the shared tier, which holds only that spec's yield answer; the daemon
// routes it to the worker that ran the yield, whose private cache answers
// it.  The yield misses at every tier and is the batch's only simulation.
// The batches follow from the seed alone, and every batch has the same
// shape, so the median sits inside the case-B cluster of yield misses.
// How requests spread over the workers does not move the latency here,
// since one worker computes per batch; shard_oneshot shows that.
class ServeMixed : public Workload {
 public:
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::size_t kHot = 18;  // syntheses
  // Fresh yields.  Each worker sees more distinct specs per pass over the
  // pool than its 256-entry caches hold, and the shared tier twice as many
  // keys, so under LRU a fresh yield misses at every tier even after the
  // client wraps around the pool.
  static constexpr std::size_t kFresh = 624;

  ~ServeMixed() override { teardown(); }

  const char* unit() const override { return "answered requests"; }
  double tail_pct() const override { return 95.0; }

  void setup(const Options& opt) override {
    hot_ = stratify(
        generate_requests(opt, opt.out_dir + "/inputs-serve-s", 60, opt.seed, 0.0, 8),
        kHot / 3);
    fresh_ = stratify(generate_requests(opt, opt.out_dir + "/inputs-serve-y", 800,
                                        opt.seed + 1000003, 1.0, 8),
                      kFresh / 3);
    shuffle_blocks(fresh_, 3, opt.seed);
    std::vector<yield::Request> all = hot_;
    all.insert(all.end(), fresh_.begin(), fresh_.end());
    ref_ = reference_outcomes(all, &ref_outcomes_);
    // A synthesis of a fresh spec answers with the design its yield ran on.
    fresh_synth_.clear();
    for (std::size_t k = 0; k < kFresh; ++k) {
      yield::Request r;
      r.spec = fresh_[k].spec;
      fresh_synth_.push_back(r);
      yield::Outcome o;
      o.result = ref_outcomes_[kHot + k].yield.synthesis;
      ref_.push_back(yield::outcome_json(o));
    }

    serve::ServeOptions so;
    so.socket_path = util::format("%s/serve-%ld.sock", opt.out_dir.c_str(),
                                  static_cast<long>(::getpid()));
    so.workers = kWorkers;
    so.worker_command = opt.self_exe;
    server_ = std::make_unique<serve::Server>(tech5(), serial_opts(), so);
    thread_ = std::thread([this] { server_->run(); });

    // Warm the hot set into the shared tier (and wait for the daemon's
    // bind) before anything is timed.
    for (std::size_t b = 0; b < hot_.size(); b += 4) {
      const std::vector<yield::Request> batch = slice(hot_, b, std::min(b + 4, kHot));
      const serve::MixedConnectReport rep = connect(batch, true);
      for (std::size_t j = 0; j < batch.size(); ++j) {
        if (yield::outcome_json(rep.outcomes[j]) != ref_[b + j]) {
          throw std::runtime_error("warm-up answer differs from the reference");
        }
      }
    }
    for (const serve::WorkerStatus& w :
         serve::fetch_status(server_->options().socket_path).workers) {
      worker_pids_.push_back(static_cast<long>(w.pid));
    }
  }

  void teardown() override {
    if (!server_) return;
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
    ::unlink(server_->options().socket_path.c_str());
    server_.reset();
    worker_pids_.clear();
  }

  void corrupt_reference() override { ref_[kHot] += " "; }
  std::size_t warmup_calls() const override { return 24; }

  Call call(std::uint64_t i, bool traced, Tracer& tr, LayerData& ld) override {
    const std::size_t h = static_cast<std::size_t>(2 * i % kHot);
    const std::size_t k = static_cast<std::size_t>(i % kFresh);
    const std::size_t prev = (k + kFresh - 1) % kFresh;
    const std::vector<yield::Request> batch = {hot_[h], hot_[h + 1], fresh_synth_[prev],
                                               fresh_[k]};
    const std::size_t ref_index[] = {h, h + 1, kHot + kFresh + prev, kHot + k};
    Call c;
    serve::MixedConnectReport rep;
    std::string err;
    const serve::ServeStats s0 = traced ? server_->stats() : serve::ServeStats{};
    {
      Tracer::Scope req(tr, "serve.run_connected_mixed");
      try {
        rep = connect(batch, false);
        if (rep.outcomes.size() != batch.size()) err = "daemon answered a short batch";
      } catch (const std::exception& e) {
        err = e.what();
      }
      c.wall_s = req.elapsed();
    }
    const double cpu0 = thread_cpu_s();
    for (std::size_t j = 0; j < batch.size(); ++j) {
      std::string e = err;
      if (e.empty() && yield::outcome_json(rep.outcomes[j]) != ref_[ref_index[j]]) {
        e = "served outcome differs from the in-process YieldService";
      }
      tally(c, e, i, &reported_);
      if (e.empty()) c.units += 1.0;
    }
    c.check_cpu_s = thread_cpu_s() - cpu0;
    if (traced && err.empty()) {
      ld.lanes = static_cast<double>(kWorkers);
      const serve::ServeStats s1 = server_->stats();
      ld.shared_hits += static_cast<double>(s1.shared_cache_hits - s0.shared_cache_hits);
      ld.shared_misses +=
          static_cast<double>(s1.shared_cache_misses - s0.shared_cache_misses);
      ld.respawns += static_cast<double>(s1.respawns - s0.respawns);
      ld.ctr.add(rep.metrics);
      // The fresh yield is the batch's only compute: the hot pair is
      // answered by the shared tier, the synthesis by a worker's cache.
      ld.overhead_ms.push_back(1e3 * c.wall_s - replay_critical_ms({fresh_[k]}, {0}, tr, ld));
      for (std::size_t j = 0; j < batch.size(); ++j) {
        const WireProbe w = probe_wire(batch[j], rep.outcomes[j], tr);
        ld.wire_encode_us += w.encode_us;
        ld.wire_decode_us += w.decode_us;
        ld.wire_bytes += w.bytes;
        ld.wire_n += 1.0;
      }
    }
    return c;
  }

  std::vector<synth::OpAmpDesign> probe_designs() const override {
    std::vector<synth::OpAmpDesign> out;
    for (std::size_t i = 0; out.size() < kProbeDesigns && i < ref_outcomes_.size(); ++i) {
      if (ref_outcomes_[i].is_yield) out.push_back(best_design(ref_outcomes_[i]));
    }
    return out;
  }

  double helper_cpu_s() const override {
    double s = 0.0;
    for (long pid : worker_pids_) s += proc_cpu_s(pid);
    return s;
  }

  double helper_peak_rss_mb() const override {
    double m = 0.0;
    for (long pid : worker_pids_) m = std::max(m, proc_peak_rss_mb(pid));
    return m;
  }

 private:
  serve::MixedConnectReport connect(const std::vector<yield::Request>& batch,
                                    bool retry) {
    for (int attempt = 0;; ++attempt) {
      try {
        return serve::run_connected_mixed(server_->options().socket_path, tech5(),
                                          serial_opts(), batch);
      } catch (const std::runtime_error& e) {
        if (!retry || attempt >= 2000 ||
            std::string(e.what()).find("cannot connect") == std::string::npos) {
          throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  // fresh_synth_[k] asks for the synthesis of fresh_[k]'s spec.  ref_ holds
  // the hot set's answers, then fresh_'s, then fresh_synth_'s.
  std::vector<yield::Request> hot_, fresh_, fresh_synth_;
  std::vector<std::string> ref_;
  std::vector<yield::Outcome> ref_outcomes_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  std::vector<long> worker_pids_;
  bool reported_ = false;
};

// ---- shard_oneshot -------------------------------------------------------

// Batches of 8 fresh requests through run_sharded_requests with 1 worker,
// which spawns and reaps its fleet on every batch.  With 2 workers a batch
// waited for the slower of two CPUs, which on a loaded shared host differ
// by up to 1.6x and which the host probe's mean cannot see: p50, tail and
// throughput spread 14%, 24% and 22% over ten seeds even when scaled.
class ShardOneshot : public Workload {
 public:
  static constexpr std::size_t kWorkers = 1;
  static constexpr std::size_t kBatch = 8;
  // 432 syntheses + 144 yields: 72 distinct batches, so the median and tail
  // rest on many batch compositions rather than on a seed's few slowest
  // (at 36 batches the tail spread 15% over seeds).
  static constexpr std::size_t kPool = 576;

  const char* unit() const override { return "answered requests"; }
  double tail_pct() const override { return 90.0; }

  void setup(const Options& opt) override {
    self_exe_ = opt.self_exe;
    const std::vector<yield::Request> syn = stratify(
        generate_requests(opt, opt.out_dir + "/inputs-shard-s", 600, opt.seed, 0.0, 8),
        kPool / 4);
    const std::vector<yield::Request> yl = stratify(
        generate_requests(opt, opt.out_dir + "/inputs-shard-y", 260,
                          opt.seed + 1000003, 1.0, 8),
        kPool / 12);
    seq_ = mixed_sequence(syn, yl, 3, opt.seed);
    ref_ = reference_outcomes(seq_, &ref_outcomes_);
  }

  void corrupt_reference() override { ref_[0] += " "; }
  std::size_t warmup_calls() const override { return kPool / kBatch; }

  Call call(std::uint64_t i, bool traced, Tracer& tr, LayerData& ld) override {
    const std::size_t lo = (kBatch * i) % kPool;
    const std::vector<yield::Request> batch = slice(seq_, lo, lo + kBatch);
    shard::ShardOptions so;
    so.workers = kWorkers;
    so.worker_command = self_exe_;
    Call c;
    shard::ShardReport rep;
    std::string err;
    {
      Tracer::Scope req(tr, "shard.run_sharded_requests");
      try {
        rep = shard::run_sharded_requests(tech5(), serial_opts(), batch, so);
        if (!rep.infra_ok()) err = "a shard worker failed";
      } catch (const std::exception& e) {
        err = e.what();
      }
      c.wall_s = req.elapsed();
    }
    const double cpu0 = thread_cpu_s();
    std::vector<yield::Outcome> outs(batch.size());
    for (std::size_t j = 0; j < batch.size(); ++j) {
      std::string e = err;
      if (e.empty()) {
        const shard::ShardOutcome& so_j = rep.outcomes[j];
        outs[j].is_yield = so_j.is_yield;
        outs[j].result = so_j.result;
        outs[j].yield = so_j.yield;
        outs[j].error = so_j.error;
        if (yield::outcome_json(outs[j]) != ref_[lo + j]) {
          e = "sharded outcome differs from the in-process YieldService";
        }
      }
      tally(c, e, i, &reported_);
      if (e.empty()) c.units += 1.0;
    }
    c.check_cpu_s = thread_cpu_s() - cpu0;
    if (traced && err.empty()) {
      ld.lanes = static_cast<double>(kWorkers);
      ld.ctr.add(rep.merged_metrics);
      std::vector<std::size_t> worker;
      for (const shard::ShardOutcome& o : rep.outcomes) worker.push_back(o.shard);
      ld.overhead_ms.push_back(1e3 * c.wall_s - replay_critical_ms(batch, worker, tr, ld));
      ld.spawn_ms.push_back(probe_spawn_ms(self_exe_, tech5(), tr));
      for (std::size_t j = 0; j < batch.size(); ++j) {
        const WireProbe w = probe_wire(batch[j], outs[j], tr);
        ld.wire_encode_us += w.encode_us;
        ld.wire_decode_us += w.decode_us;
        ld.wire_bytes += w.bytes;
        ld.wire_n += 1.0;
      }
    }
    return c;
  }

  std::vector<synth::OpAmpDesign> probe_designs() const override {
    std::vector<synth::OpAmpDesign> out;
    for (std::size_t i = 0; out.size() < kProbeDesigns && i < ref_outcomes_.size(); ++i) {
      if (ref_outcomes_[i].is_yield) out.push_back(best_design(ref_outcomes_[i]));
    }
    return out;
  }

 private:
  std::string self_exe_;
  std::vector<yield::Request> seq_;
  std::vector<std::string> ref_;
  std::vector<yield::Outcome> ref_outcomes_;
  bool reported_ = false;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "verify_stream") return std::make_unique<VerifyStream>();
  if (name == "yield_mc") return std::make_unique<YieldMc>();
  if (name == "serve_mixed") return std::make_unique<ServeMixed>();
  if (name == "shard_oneshot") return std::make_unique<ShardOneshot>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- the timed loop ------------------------------------------------------

struct Window {
  std::vector<Call> calls;
  std::vector<double> probe_us;  // mean host probe over CPUs after each call
  double cpu_s = 0.0;  // this process, reaped children and live helpers
  double answered = 0.0, failed = 0.0, units = 0.0, wall_s = 0.0, check_cpu_s = 0.0;
};

// Closed loop, one client: the next call starts when the previous returns.
// The host probe runs between calls, outside the call's time and CPU.  A
// call is scaled by the mean over CPUs: the CPU a single-threaded call ran
// on did no better, and most calls run on several.
Window run_window(Workload& w, HostProbe& probe, double seconds, bool traced,
                  Tracer& tr, LayerData& ld, std::uint64_t* next) {
  Window win;
  double cpu0 = self_cpu_s() + children_cpu_s() + w.helper_cpu_s();
  const Clock::time_point t0 = Clock::now();
  do {
    tr.request = *next + 1;
    const Call c = w.call((*next)++, traced, tr, ld);
    const double probe_cpu0 = self_cpu_s();
    win.probe_us.push_back(probe.run());
    cpu0 += self_cpu_s() - probe_cpu0;
    win.calls.push_back(c);
    win.answered += static_cast<double>(c.answered);
    win.failed += static_cast<double>(c.failed);
    win.units += c.units;
    win.wall_s += c.wall_s;
    win.check_cpu_s += c.check_cpu_s;
  } while (seconds_since(t0) < seconds);
  win.cpu_s = self_cpu_s() + children_cpu_s() + w.helper_cpu_s() - cpu0;
  if (traced) {
    ld.answered += win.answered;
    ld.wall_s += win.wall_s;
    ld.cpu_s += win.cpu_s - win.check_cpu_s;
  }
  return win;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per call, kReferenceProbeUs over the median probe within kProbeWindow
// calls of it: the factor that takes the call's times to reference speed.
std::vector<double> speed_factors(const std::vector<double>& probe_us) {
  std::vector<double> out;
  for (std::size_t i = 0; i < probe_us.size(); ++i) {
    const std::size_t lo = i > kProbeWindow ? i - kProbeWindow : 0;
    const std::size_t hi = std::min(probe_us.size(), i + kProbeWindow + 1);
    out.push_back(kReferenceProbeUs /
                  median(std::vector<double>(probe_us.begin() + static_cast<std::ptrdiff_t>(lo),
                                             probe_us.begin() + static_cast<std::ptrdiff_t>(hi))));
  }
  return out;
}

// Mean over probe results of one field.
template <typename F>
double mean_of(const std::vector<SimProbe>& v, F f) {
  double s = 0.0;
  for (const SimProbe& p : v) s += f(p);
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double mean_span_ms(const Tracer& tr, const std::string& name) {
  std::size_t n = 0;
  for (const Tracer::Span& s : tr.spans()) n += s.name == name ? 1 : 0;
  return n == 0 ? 0.0 : 1e3 * tr.total_s(name) / static_cast<double>(n);
}

std::vector<Metric> layer_metrics(const std::string& workload, const LayerData& ld,
                                  const Tracer& tr, const std::vector<SimProbe>& probes,
                                  double trace_ratio, double child_rss_mb,
                                  std::string* report) {
  const CounterTotals& c = ld.ctr;
  const double reqs = ld.answered;
  const double lu_real_us = mean_of(probes, [](const SimProbe& p) { return p.lu_real_us; });
  const double lu_complex_us =
      mean_of(probes, [](const SimProbe& p) { return p.lu_complex_us; });
  const double mos_ns = mean_of(probes, [](const SimProbe& p) { return p.mos_eval_ns; });
  // Shares are of lane time: request wall x the lanes (exec lanes or worker
  // processes) the work could run on.
  const double lane_s = ld.wall_s * ld.lanes;
  const double real_lus = c.get("sim.newton.iterations") + c.get("sim.tran.newton_iterations");
  const double complex_lus = c.get("sim.ac.points") + ld.noise_points;
  const double real_share = ratio(real_lus * lu_real_us * 1e-6, lane_s);
  const double complex_share = ratio(complex_lus * lu_complex_us * 1e-6, lane_s);
  const double eval_share = ratio(c.get("sim.device_eval.devices") * mos_ns * 1e-9, lane_s);
  const double samples = c.get("yield.samples");
  // Yield sample time comes from analyze_yield spans: the timed request on
  // yield_mc, the in-process replay on serve_mixed and shard_oneshot.
  const double yield_ms = 1e3 * tr.total_s("yield.analyze_yield");
  const double yield_samples_timed = workload == "yield_mc" ? samples : ld.replay_samples;

  std::vector<Metric> m = {
      {"synth.plan_ms", mean_span_ms(tr, "synth.synthesize_opamp"), "ms"},
      {"synth.steps_per_req", ratio(c.get("plan.steps_executed"), reqs), "count"},
      {"synth.rules_per_req", ratio(c.get("plan.rules_fired"), reqs), "count"},
      {"synth.restarts_per_req", ratio(c.get("plan.restarts"), reqs), "count"},
      {"synth.feasible_ratio",
       ratio(c.get("synth.feasible_candidates"), c.get("synth.style_attempts")), "ratio"},
      {"verify.measure_ms", mean_span_ms(tr, "synth.measure_opamp"), "ms"},
      {"sim.dc_ms", mean_of(probes, [](const SimProbe& p) { return p.dc_ms; }), "ms"},
      {"sim.ac_ms", mean_of(probes, [](const SimProbe& p) { return p.ac_ms; }), "ms"},
      {"sim.noise_ms", mean_of(probes, [](const SimProbe& p) { return p.noise_ms; }), "ms"},
      {"sim.tran_ms", mean_of(probes, [](const SimProbe& p) { return p.tran_ms; }), "ms"},
      {"sim.newton_iters_per_req", ratio(c.get("sim.newton.iterations"), reqs), "count"},
      {"sim.newton_iters_per_solve",
       ratio(c.get("sim.newton.iterations"), c.get("sim.newton.solves")), "count"},
      {"sim.op_calls_per_req", ratio(c.get("sim.op.calls"), reqs), "count"},
      {"sim.op_nonconverged_ratio",
       ratio(c.get("sim.op.nonconverged"), c.get("sim.op.calls")), "ratio"},
      {"sim.ac_points_per_req", ratio(c.get("sim.ac.points"), reqs), "count"},
      {"sim.tran_steps_per_req", ratio(c.get("sim.tran.steps_accepted"), reqs), "count"},
      {"lu.real_us", lu_real_us, "us"},
      {"lu.complex_us", lu_complex_us, "us"},
      {"lu.real_share_est", real_share, "ratio"},
      {"lu.complex_share_est", complex_share, "ratio"},
      {"mos.devices_per_req", ratio(c.get("sim.device_eval.devices"), reqs), "count"},
      {"mos.eval_ns_per_device", mos_ns, "ns"},
      {"mos.eval_share_est", eval_share, "ratio"},
      {"exec.tasks_per_req", ratio(c.get("exec.tasks"), reqs), "count"},
      // exec.task_seconds counts nested regions twice (a sample task and
      // the AC points inside it), so busy time is this process's CPU.
      {"exec.lane_busy_ratio", workload == "yield_mc" ? ratio(ld.cpu_s, lane_s) : 0.0,
       "ratio"},
      {"yield.sample_ms", ratio(yield_ms, yield_samples_timed), "ms"},
      {"yield.converged_ratio", ratio(c.get("yield.samples_converged"), samples), "ratio"},
      {"yield.newton_iters_per_sample",
       workload == "verify_stream" ? 0.0 : ratio(c.get("sim.newton.iterations"), samples),
       "count"},
      {"service.hit_ratio", ratio(c.get("service.hits"), c.get("service.requests")), "ratio"},
      {"service.dedup_ratio", ratio(c.get("service.dedup_joins"), c.get("service.requests")),
       "ratio"},
      {"wire.encode_us", ratio(ld.wire_encode_us, ld.wire_n), "us"},
      {"wire.decode_us", ratio(ld.wire_decode_us, ld.wire_n), "us"},
      {"wire.bytes_per_req", ratio(ld.wire_bytes, ld.wire_n), "bytes"},
      {"serve.shared_hit_ratio", ratio(ld.shared_hits, ld.shared_hits + ld.shared_misses),
       "ratio"},
      {"serve.overhead_ms", workload == "serve_mixed" ? median(ld.overhead_ms) : 0.0, "ms"},
      {"serve.respawns", ld.respawns, "count"},
      {"shard.spawn_ms", median(ld.spawn_ms), "ms"},
      {"shard.overhead_ms", workload == "shard_oneshot" ? median(ld.overhead_ms) : 0.0, "ms"},
      {"trace.overhead_ratio", trace_ratio, "ratio"},
      {"proc.children_peak_rss_mb", child_rss_mb, "MB"},
  };

  *report += util::format(
      "LU attribution (%s, computed from per-request counts x probe unit cost):\n"
      "  real LU         %5.1f%% of lane time (%.0f lanes)   gprof target on yield: ~55%%\n"
      "  complex LU      %5.1f%%                            gprof target on yield: ~27%%\n"
      "  MOS eval kernel %5.1f%%                            NonlinearSystem::eval: ~18%%\n"
      "  not attributed  %5.1f%%\n",
      workload.c_str(), 100 * real_share, ld.lanes, 100 * complex_share, 100 * eval_share,
      100 * (1 - real_share - complex_share - eval_share));
  return m;
}

}  // namespace

RunResult run_workload(const Options& opt) {
  exec::set_default_jobs(1);
  std::unique_ptr<Workload> w = make_workload(opt.workload);
  RunResult out;

  // Set-up: golden check, inputs, references, daemon; several times.
  std::vector<double> setup_s;
  int golden_mismatches = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    golden_mismatches += check_paper_goldens();
    w->setup(opt);
    setup_s.push_back(seconds_since(t0));
    if (rep + 1 < kSetupReps) w->teardown();
  }
  if (opt.corrupt_reference) w->corrupt_reference();

  Tracer tr;
  LayerData ld;
  std::uint64_t next = 0;
  // Untimed warm-up calls let lazy set-up and the first pass over the
  // inputs finish before anything is timed; their failures still count.
  std::uint64_t warm_failed = 0;
  for (std::size_t k = 0; k < w->warmup_calls(); ++k) {
    warm_failed += w->call(next++, false, tr, ld).failed;
  }
  HostProbe probe;
  Window win;
  double trace_ratio = 0.0;
  if (!opt.trace) {
    win = run_window(*w, probe, opt.seconds, false, tr, ld, &next);
  } else {
    const Window plain =
        run_window(*w, probe, kUntracedShare * opt.seconds, false, tr, ld, &next);
    tr.enabled = true;
    obs::set_timing_enabled(true);
    win = run_window(*w, probe, (1.0 - kUntracedShare) * opt.seconds, true, tr, ld, &next);
    obs::set_timing_enabled(false);
    trace_ratio = ratio(win.wall_s / std::max(win.units, 1.0),
                        plain.wall_s / std::max(plain.units, 1.0));
    win.answered += plain.answered;
    win.failed += plain.failed;
  }
  const double helper_rss = w->helper_peak_rss_mb();
  const double child_rss = std::max(helper_rss, children_peak_rss_mb());

  out.attempted = static_cast<std::uint64_t>(win.answered);
  out.failed = std::min<std::uint64_t>(
      out.attempted,
      static_cast<std::uint64_t>(win.failed) + warm_failed + (golden_mismatches > 0 ? 1 : 0));
  out.correct = out.failed == 0;

  // Call times as measured, and scaled to reference host speed.
  const std::vector<double> speed = speed_factors(win.probe_us);
  const double host_probe = median(win.probe_us);
  std::vector<double> raw_ms, wall_ms;
  double scaled_wall_s = 0.0;
  for (std::size_t i = 0; i < win.calls.size(); ++i) {
    raw_ms.push_back(1e3 * win.calls[i].wall_s);
    wall_ms.push_back(raw_ms.back() * speed[i]);
    scaled_wall_s += win.calls[i].wall_s * speed[i];
  }
  const double n = static_cast<double>(wall_ms.size());
  const double beyond = n - std::ceil(w->tail_pct() / 100.0 * n);
  const auto each = [](const std::vector<double>& v) {
    std::string s;
    for (const double x : v) s += util::format("%s%.6f", s.empty() ? "" : " ", x);
    return s;
  };
  out.notes = {
      {"unit_of_work", w->unit()},
      {"tail_percentile", util::format("%g", w->tail_pct())},
      {"calls_timed", util::format("%.0f", n)},
      {"tail_samples_beyond", util::format("%.0f", beyond)},
      {"setup_raw_s_each", each(setup_s)},
      {"host_probe_us_median", util::format("%.3f", host_probe)},
      {"reference_probe_us", util::format("%g", kReferenceProbeUs)},
      {"raw_req_p50_ms", util::format("%.6f", median(raw_ms))},
      {"raw_throughput_per_s", util::format("%.6f", ratio(win.units, win.wall_s))},
      {"children_peak_rss_mb", util::format("%.3f", child_rss)},
  };
  if (beyond < 10) {
    std::fprintf(stderr, "note: only %.0f samples beyond p%g\n", beyond, w->tail_pct());
  }

  if (!opt.trace) {
    out.metrics = {
        // Set-up runs before the probe threads start, on up to four
        // threads; it takes the window's median probe over all CPUs,
        // which follows slow spells of a minute or more.
        {"setup_s", median(setup_s) * kReferenceProbeUs / host_probe, "s"},
        {"req_p50_ms", median(wall_ms), "ms"},
        {"req_tail_ms", percentile(wall_ms, w->tail_pct()), "ms"},
        {"throughput_per_s", ratio(win.units, scaled_wall_s), "1/s"},
        // CPU time stretches with the host as wall time does, so it takes
        // the window's overall factor.
        {"cpu_ms_per_req",
         1e3 * ratio(scaled_wall_s, win.wall_s) * ratio(win.cpu_s - win.check_cpu_s, win.answered),
         "ms"},
        {"ok_ratio", ratio(static_cast<double>(out.attempted - out.failed), win.answered),
         "ratio"},
        {"peak_rss_mb", self_peak_rss_mb(), "MB"},
    };
  } else {
    std::vector<SimProbe> probes;
    tr.request = 0;
    for (const synth::OpAmpDesign& d : w->probe_designs()) {
      probes.push_back(probe_simulator(tech5(), d, tr));
    }
    out.metrics = layer_metrics(opt.workload, ld, tr, probes, trace_ratio, child_rss,
                                &out.report);
    out.report = "Per-layer self time (" + opt.workload + ", traced phase):\n" +
                 tr.self_time_table() + out.report;
    out.trace_json = tr.chrome_json(opt.workload);
  }
  w->teardown();
  return out;
}

}  // namespace perfbench
