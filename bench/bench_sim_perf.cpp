// Circuit-simulator microbenchmarks: operating point, AC sweep, and
// transient throughput on a synthesized op amp — the substrate cost behind
// every verification run — and the Monte-Carlo yield sweep built on them.
//
// Two modes:
//  * default — the google-benchmark timing loops;
//  * --json <path> — the perf-trajectory record: measures the baseline
//    kernels against the production paths in the same binary — the
//    pre-workspace Newton solve (by-value LU, per-iteration heap
//    allocation), dense per-point complex LU for the AC sweep, one LU
//    solve per source for noise and dense partial-pivot LU for the Newton
//    Jacobians — fixed vs adaptive transient stepping, and paper case C's
//    verification transient step (Newton iterations per accepted step, the
//    slot capacitance refresh against the dense build it replaced).  The
//    AC, noise and refresh rows time baseline and kernel in alternating
//    pairs and record the median per-pair ratio with its range.
//    Self-checks that the DC pairing is bit-for-bit identical, that the AC
//    sweep and the noise spectrum agree with their LU baselines within
//    1e-6 relative (the AC kernel solves a reduced pencil, so it agrees to
//    rounding, not bit for bit), that the planned sparse LU solves paper
//    case C's DC and transient Jacobians within 1e-10 of dense LU, that
//    the slot refresh equals the dense build bit for bit at every accepted
//    step, that the AC sweep is identical across --jobs 1/2/4, and that
//    repeated runs are identical, then writes the JSON record.  Exit is
//    non-zero only when a self-check fails; timings are informational.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "numeric/sparse_lu.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/measure.h"
#include "spice/noise.h"
#include "spice/small_signal.h"
#include "spice/tran.h"
#include "synth/netlist_builder.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/units.h"
#include "yield/yield.h"

#include "jobs_flag.h"
#include "perf_json.h"

namespace {

using namespace oasys;

struct Fixture {
  tech::Technology t = tech::five_micron();
  ckt::Circuit circuit;
  ckt::NodeId out = ckt::kGround;
  sim::OpResult op;

  Fixture() {
    const synth::SynthesisResult r =
        synth::synthesize_opamp(t, synth::spec_case_b());
    const synth::OpAmpDesign& d = *r.best();
    const synth::BuiltOpAmp nodes = synth::build_opamp(d, t, circuit);
    circuit.add_vsource("VDD", nodes.vdd, ckt::kGround,
                        ckt::Waveform::dc(t.vdd));
    circuit.add_vsource("VSS", nodes.vss, ckt::kGround,
                        ckt::Waveform::dc(t.vss));
    circuit.add_vsource("VIP", nodes.inp, ckt::kGround,
                        ckt::Waveform::ac(0.0, 0.5, 0.0));
    circuit.add_vsource("VIN", nodes.inn, ckt::kGround,
                        ckt::Waveform::ac(0.0, 0.5, 180.0));
    circuit.add_capacitor("CL", nodes.out, ckt::kGround, 10e-12);
    out = nodes.out;
    op = sim::dc_operating_point(circuit, t);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_OperatingPointCold(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::dc_operating_point(f.circuit, f.t));
  }
}
BENCHMARK(BM_OperatingPointCold);

void BM_OperatingPointWarm(benchmark::State& state) {
  Fixture& f = fixture();
  sim::OpOptions opts;
  opts.initial_guess = f.op.solution;
  sim::SimWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::dc_operating_point(f.circuit, f.t, opts, &ws));
  }
}
BENCHMARK(BM_OperatingPointWarm);

void BM_AcSweep61Points(benchmark::State& state) {
  Fixture& f = fixture();
  const auto freqs = num::logspace(1.0, 1e8, 61);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::ac_analysis(f.circuit, f.t, f.op, freqs));
  }
}
BENCHMARK(BM_AcSweep61Points);

void BM_Transient200Steps(benchmark::State& state) {
  Fixture& f = fixture();
  sim::TranOptions to;
  to.tstop = 2e-6;
  to.dt = 1e-8;
  to.mode = sim::TranMode::kFixed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::transient(f.circuit, f.t, f.op, to));
  }
}
BENCHMARK(BM_Transient200Steps);

// One spec's Monte-Carlo yield sweep (case A, 64 samples, seed 1) at jobs
// 1/2/4; the fan-out is across samples, each one a bordered offset solve
// plus the AC walk.  `--benchmark_filter='BM_YieldAnalysis/1$'` is the
// protocol behind the SIMD build's measured gain (README, "Performance").
void BM_YieldAnalysis(benchmark::State& state) {
  constexpr int kSamples = 64;
  const tech::Technology t = tech::five_micron();
  synth::SynthOptions serial;
  serial.jobs = 1;
  const synth::SynthesisResult synthesis =
      synth::synthesize_opamp(t, synth::spec_case_a(), serial);
  yield::YieldParams p;
  p.samples = kSamples;
  p.seed = 1;
  p.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(yield::analyze_yield(t, synthesis, p));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
}
BENCHMARK(BM_YieldAnalysis)->Arg(1)->Arg(2)->Arg(4);

// ---- JSON perf record -------------------------------------------------------

using Cplx = std::complex<double>;

// The pre-workspace Newton solve, reproduced exactly as the seed shipped
// it: Jacobian and residual allocated per call, by-value LU (one matrix
// copy), and fresh RHS + step vectors per iteration.  The device table is
// built once per solve, as the production path does.  Performs the same
// arithmetic as the production path, so its solution must match
// sim::dc_operating_point bit for bit.
bool baseline_newton(const sim::NonlinearSystem& sys,
                     const sim::OpOptions& opts, sim::DeviceTable* devices,
                     std::vector<double>* x) {
  const std::size_t n = sys.layout().size();
  const std::size_t nv = sys.layout().num_node_unknowns();
  num::RealMatrix jac(n, n);
  std::vector<double> f(n);
  sim::NonlinearSystem::EvalOptions eval_opts;
  eval_opts.gmin = opts.gmin;
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    sys.eval(*x, eval_opts, &jac, &f, nullptr, devices);
    auto lu = num::lu_factor(jac);
    if (lu.singular) return false;
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -f[i];
    std::vector<double> dx = num::lu_solve(lu, rhs);
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nv; ++i) {
      max_dv = std::max(max_dv, std::abs(dx[i]));
    }
    double scale = 1.0;
    if (max_dv > opts.vlimit_step) scale = opts.vlimit_step / max_dv;
    for (std::size_t i = 0; i < n; ++i) (*x)[i] += scale * dx[i];
    if (max_dv < opts.vntol) {
      sys.eval(*x, eval_opts, nullptr, &f, nullptr, devices);
      double max_node_residual = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_node_residual = std::max(max_node_residual, std::abs(f[i]));
      }
      if (max_node_residual < opts.abstol) return true;
    }
  }
  return false;
}

// The pre-workspace warm dc_operating_point flow (plain-Newton strategy +
// final bookkeeping pass), so baseline and production pay identical
// system-construction and result-assembly costs and differ only in the
// kernel-loop allocation behavior.
sim::OpResult baseline_dc(const ckt::Circuit& c, const tech::Technology& t,
                          const sim::OpOptions& opts) {
  sim::NonlinearSystem sys(c, t);
  const std::size_t n = sys.layout().size();
  sim::OpResult result;
  std::vector<double> x = opts.initial_guess.size() == n
                              ? opts.initial_guess
                              : std::vector<double>(n, 0.0);
  sim::DeviceTable devices;
  sys.build_device_table(&devices);
  std::vector<double> trial = x;
  if (baseline_newton(sys, opts, &devices, &trial)) {
    result.converged = true;
    result.strategy = "newton";
    result.solution = std::move(trial);
    sim::NonlinearSystem::EvalOptions eval_opts;
    eval_opts.gmin = opts.gmin;
    sys.eval(result.solution, eval_opts, nullptr, nullptr, &result.devices,
             &devices);
  } else {
    result.solution = std::move(x);
  }
  return result;
}

// G + j2pifC as a fresh dense complex matrix, element-wise fill, factored
// by value: the per-point LU the AC kernel replaced.
num::LuFactors<Cplx> dense_lu(const num::RealMatrix& g,
                              const num::RealMatrix& cap, double f) {
  const std::size_t n = g.rows();
  const double w = util::kTwoPi * f;
  num::ComplexMatrix y(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t col = 0; col < n; ++col) {
      y(r, col) = Cplx(g(r, col), w * cap(r, col));
    }
  }
  return num::lu_factor(std::move(y));
}

// The dense AC sweep: one dense_lu and one solve per frequency point.
std::vector<std::vector<Cplx>> baseline_ac(const num::RealMatrix& g,
                                           const num::RealMatrix& cap,
                                           const std::vector<Cplx>& rhs,
                                           const std::vector<double>& freqs,
                                           bool* ok) {
  std::vector<std::vector<Cplx>> solutions(freqs.size());
  *ok = true;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const auto lu = dense_lu(g, cap, freqs[i]);
    if (lu.singular) {
      *ok = false;
      return solutions;
    }
    solutions[i] = num::lu_solve(lu, rhs);
  }
  return solutions;
}

// The fixture's AC excitation vector, as ac_analysis assembles it.
std::vector<Cplx> ac_excitation(const ckt::Circuit& c,
                                const sim::MnaLayout& layout) {
  std::vector<Cplx> rhs(layout.size(), Cplx{});
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    if (v.wave.ac_mag() != 0.0) {
      const double ph = util::rad(v.wave.ac_phase_deg());
      rhs[layout.branch_index(k)] = std::polar(v.wave.ac_mag(), ph);
    }
  }
  return rhs;
}

// Output noise PSD per frequency the dense way: one dense_lu per
// frequency, then one solve per noise source.
std::vector<double> baseline_noise(const num::RealMatrix& g,
                                   const num::RealMatrix& cap,
                                   const sim::MnaLayout& layout,
                                   const std::vector<sim::NoiseSource>& sources,
                                   std::size_t out,
                                   const std::vector<double>& freqs,
                                   bool* ok) {
  std::vector<double> psd(freqs.size(), 0.0);
  *ok = true;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const auto lu = dense_lu(g, cap, freqs[i]);
    if (lu.singular) {
      *ok = false;
      return psd;
    }
    for (const sim::NoiseSource& s : sources) {
      std::vector<Cplx> x(g.rows(), Cplx{});
      const int ia = layout.node_index(s.a);
      const int ib = layout.node_index(s.b);
      if (ia >= 0) x[static_cast<std::size_t>(ia)] -= 1.0;
      if (ib >= 0) x[static_cast<std::size_t>(ib)] += 1.0;
      num::lu_solve_in_place(lu, &x);
      psd[i] += std::norm(x[out]) * s.psd(freqs[i]);
    }
  }
  return psd;
}

// One Newton Jacobian and its structural pattern, for the LU timing row.
struct NewtonJacobian {
  const char* name;
  num::SparsePattern pattern;
  num::RealMatrix jac;
  std::vector<double> rhs;  // alternating signs, every entry nonzero
};

// Paper case C on the 5 um process, the largest of the three: its DC
// Jacobian (the open-loop bench at the offset null) and its transient
// Jacobian (the slew follower at its operating point, J + 2C/dt, the
// trapezoidal companion of the first step).
std::vector<NewtonJacobian> newton_jacobians(const tech::Technology& t) {
  const synth::SynthesisResult r =
      synth::synthesize_opamp(t, synth::spec_case_c());
  const synth::OpAmpDesign& d = *r.best();
  std::vector<NewtonJacobian> out;
  const auto jacobian_at = [&](const ckt::Circuit& c,
                               const std::vector<double>& x, bool caps,
                               const char* name) {
    const sim::NonlinearSystem sys(c, t);
    NewtonJacobian nj{name, {}, {}, {}};
    sys.jacobian_pattern(caps, &nj.pattern);
    sys.eval(x, {}, &nj.jac, nullptr);
    for (std::size_t i = 0; i < x.size(); ++i) {
      nj.rhs.push_back(i % 2 == 0 ? 1.0 : -1.0);
    }
    return nj;
  };
  synth::OpenLoopBench bench(d, t);
  const synth::OffsetNull null = synth::measure_offset(&bench, t);
  if (null.ok) {
    out.push_back(jacobian_at(bench.circuit, null.op.solution, false, "dc"));
  }
  const synth::SlewBench sb = synth::slew_bench(d, t, 0.0);
  const sim::OpResult op = sim::dc_operating_point(sb.circuit, t);
  if (op.converged) {
    NewtonJacobian nj = jacobian_at(sb.circuit, op.solution, true, "tran");
    num::RealMatrix g, cap;
    sim::build_small_signal_matrices(sb.circuit, sim::MnaLayout(sb.circuit),
                                     op, &g, &cap);
    const double a = 2.0 / sb.tran.dt;
    for (std::size_t i = 0; i < cap.rows(); ++i) {
      for (std::size_t j = 0; j < cap.cols(); ++j) {
        if (cap(i, j) != 0.0) nj.jac(i, j) += cap(i, j) * a;
      }
    }
    out.push_back(std::move(nj));
  }
  return out;
}

// Times `base` and `kernel` once each in alternating pairs, flipping which
// side runs first every pair, so a drift in the host's speed hits both
// sides alike.  The ratios base/kernel are per pair; the seconds are the
// best of each side.
struct PairedTiming {
  double base_s = 1e300, kernel_s = 1e300;
  double ratio_median = 0.0, ratio_min = 0.0, ratio_max = 0.0;
};

PairedTiming time_pairs(int pairs, const std::function<void()>& base,
                        const std::function<void()>& kernel) {
  PairedTiming out;
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    double b = 0.0, k = 0.0;
    if (i % 2 == 0) {
      b = oasys::bench::time_best_of(1, base);
      k = oasys::bench::time_best_of(1, kernel);
    } else {
      k = oasys::bench::time_best_of(1, kernel);
      b = oasys::bench::time_best_of(1, base);
    }
    out.base_s = std::min(out.base_s, b);
    out.kernel_s = std::min(out.kernel_s, k);
    ratios.push_back(b / k);
  }
  std::sort(ratios.begin(), ratios.end());
  out.ratio_median = ratios[ratios.size() / 2];
  out.ratio_min = ratios.front();
  out.ratio_max = ratios.back();
  return out;
}

// The transient's C the dense way, as it was refreshed after every
// accepted step before fixed slots: a full eval for the DeviceOps, a
// dense n x n build, and a scan for its nonzeros into `*entries`.
void dense_cap_refresh(const sim::NonlinearSystem& sys,
                       const std::vector<double>& x,
                       std::vector<sim::DeviceOp>* ops,
                       sim::DeviceTable* devices, num::RealMatrix* cmat,
                       std::vector<double>* entries) {
  const sim::MnaLayout& layout = sys.layout();
  const std::size_t n = layout.size();
  sys.eval(x, {}, nullptr, nullptr, ops, devices);
  if (cmat->rows() != n) *cmat = num::RealMatrix(n, n);
  cmat->fill(0.0);
  for (const auto& cap : sys.circuit().capacitors()) {
    const int ia = layout.node_index(cap.a);
    const int ib = layout.node_index(cap.b);
    const auto ua = static_cast<std::size_t>(ia);
    const auto ub = static_cast<std::size_t>(ib);
    if (ia >= 0) (*cmat)(ua, ua) += cap.capacitance;
    if (ia >= 0 && ib >= 0) {
      (*cmat)(ua, ub) -= cap.capacitance;
      (*cmat)(ub, ua) -= cap.capacitance;
    }
    if (ib >= 0) (*cmat)(ub, ub) += cap.capacitance;
  }
  const auto add2 = [&](ckt::NodeId a, ckt::NodeId b, double value) {
    const int ia = layout.node_index(a);
    const int ib = layout.node_index(b);
    const auto ua = static_cast<std::size_t>(ia);
    const auto ub = static_cast<std::size_t>(ib);
    if (ia >= 0) (*cmat)(ua, ua) += value;
    if (ib >= 0) (*cmat)(ub, ub) += value;
    if (ia >= 0 && ib >= 0) {
      (*cmat)(ua, ub) -= value;
      (*cmat)(ub, ua) -= value;
    }
  };
  const auto& mosfets = sys.circuit().mosfets();
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    const auto& m = mosfets[k];
    const sim::DeviceOp& d = (*ops)[k];
    add2(m.g, m.s, d.cgs);
    add2(m.g, m.d, d.cgd);
    add2(m.g, m.b, d.cgb);
    add2(m.d, m.b, d.cdb);
    add2(m.s, m.b, d.csb);
  }
  entries->clear();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if ((*cmat)(r, c) != 0.0) entries->push_back((*cmat)(r, c));
    }
  }
}

// True when every slot of `slots` holds the bits of the dense matrix's
// entry and no nonzero of `cmat` lies outside the slots.
bool slots_equal_dense(const sim::CapSlots& slots,
                       const num::RealMatrix& cmat) {
  const std::size_t n = cmat.rows();
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t t = slots.row_begin()[r];
    for (std::size_t c = 0; c < n; ++c) {
      if (t < slots.row_begin()[r + 1] && slots.col()[t] == c) {
        if (std::memcmp(&slots.value()[t], &cmat(r, c), sizeof(double)) !=
            0) {
          return false;
        }
        ++t;
      } else if (cmat(r, c) != 0.0) {
        return false;
      }
    }
  }
  return true;
}

int emit_json(const char* path) {
  Fixture& f = fixture();
  sim::NonlinearSystem sys(f.circuit, f.t);
  const std::size_t n = sys.layout().size();
  const auto freqs = num::logspace(1.0, 1e8, 61);
  bool deterministic = true;

  // ---- DC Newton: warm solves, baseline vs workspace ----------------------
  sim::OpOptions warm;
  warm.initial_guess = f.op.solution;
  const int dc_solves = 2000;

  const sim::OpResult dc_base_ref = baseline_dc(f.circuit, f.t, warm);
  sim::SimWorkspace ws;
  const sim::OpResult dc_ws_ref =
      sim::dc_operating_point(f.circuit, f.t, warm, &ws);
  const bool dc_equal = dc_base_ref.converged && dc_ws_ref.converged &&
                        dc_base_ref.solution == dc_ws_ref.solution;
  deterministic &= dc_equal;

  const double dc_base_s = oasys::bench::time_best_of(7, [&] {
    for (int i = 0; i < dc_solves; ++i) {
      sim::OpResult r = baseline_dc(f.circuit, f.t, warm);
      benchmark::DoNotOptimize(r);
    }
  });
  const double dc_ws_s = oasys::bench::time_best_of(7, [&] {
    for (int i = 0; i < dc_solves; ++i) {
      sim::OpResult r = sim::dc_operating_point(f.circuit, f.t, warm, &ws);
      benchmark::DoNotOptimize(r);
    }
  });

  // ---- AC sweep: dense LU baseline vs kernel, plus jobs invariance -------
  num::RealMatrix g, cap;
  sim::build_small_signal_matrices(f.circuit, sys.layout(), f.op, &g, &cap);
  const std::vector<Cplx> rhs = ac_excitation(f.circuit, sys.layout());

  bool base_ok = false;
  const auto ac_base_ref = baseline_ac(g, cap, rhs, freqs, &base_ok);
  const sim::AcResult ac_ws_ref =
      sim::ac_analysis(f.circuit, f.t, f.op, freqs, 1);
  // Normwise relative error per point, worst over the sweep.
  double ac_baseline_max_rel = 1.0;
  if (base_ok && ac_ws_ref.ok) {
    ac_baseline_max_rel = 0.0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      double err = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        err = std::max(err, std::abs(ac_ws_ref.solutions[i][k] -
                                     ac_base_ref[i][k]));
      }
      ac_baseline_max_rel = std::max(
          ac_baseline_max_rel, err / num::max_abs(ac_base_ref[i]));
    }
  }
  bool ac_jobs_invariant = true;
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    const sim::AcResult r =
        sim::ac_analysis(f.circuit, f.t, f.op, freqs, jobs);
    ac_jobs_invariant &= r.ok && r.solutions == ac_ws_ref.solutions;
  }
  deterministic &= ac_jobs_invariant;
  const bool accurate_ac = ac_baseline_max_rel <= 1e-6;

  const int ac_repeats = 50;
  const int timing_pairs = 9;
  const PairedTiming ac_time = time_pairs(
      timing_pairs,
      [&] {
        bool ok = false;
        for (int i = 0; i < ac_repeats; ++i) {
          auto s = baseline_ac(g, cap, rhs, freqs, &ok);
          benchmark::DoNotOptimize(s);
        }
      },
      [&] {
        for (int i = 0; i < ac_repeats; ++i) {
          sim::AcResult r = sim::ac_analysis(f.circuit, f.t, f.op, freqs, 1);
          benchmark::DoNotOptimize(r);
        }
      });

  // ---- Noise: one LU solve per source vs one adjoint row per point ------
  const auto noise_freqs = num::logspace(1e3, 1e7, 25);
  const std::vector<sim::NoiseSource> sources =
      sim::noise_sources(f.circuit, f.t, f.op);
  const auto out_index =
      static_cast<std::size_t>(sys.layout().node_index(f.out));
  const std::vector<double> noise_base_ref = baseline_noise(
      g, cap, sys.layout(), sources, out_index, noise_freqs, &base_ok);
  const sim::NoiseResult noise_ref =
      sim::noise_analysis(f.circuit, f.t, f.op, f.out, noise_freqs);
  double noise_max_rel = 1.0;
  if (base_ok && noise_ref.ok) {
    noise_max_rel = 0.0;
    for (std::size_t i = 0; i < noise_freqs.size(); ++i) {
      noise_max_rel = std::max(
          noise_max_rel, std::abs(noise_ref.output_psd[i] - noise_base_ref[i]) /
                             noise_base_ref[i]);
    }
  }
  const bool accurate_noise = noise_max_rel <= 1e-6;

  const int noise_repeats = 50;
  const PairedTiming noise_time = time_pairs(
      timing_pairs,
      [&] {
        bool ok = false;
        for (int i = 0; i < noise_repeats; ++i) {
          auto psd = baseline_noise(g, cap, sys.layout(), sources, out_index,
                                    noise_freqs, &ok);
          benchmark::DoNotOptimize(psd);
        }
      },
      [&] {
        for (int i = 0; i < noise_repeats; ++i) {
          sim::NoiseResult r =
              sim::noise_analysis(f.circuit, f.t, f.op, f.out, noise_freqs);
          benchmark::DoNotOptimize(r);
        }
      });

  // ---- Newton LU: dense partial pivoting vs the planned sparse refactor ---
  // What every DC and transient Newton iteration pays for its factor and
  // solve.  Both sides copy the Jacobian into their factor buffer first,
  // as the product refills it by eval, and reuse all storage.
  struct NewtonLuRow {
    const char* name;
    std::size_t n, nnz, plan_updates;
    double dense_s, planned_s, max_rel;
  };
  std::vector<NewtonLuRow> lu_rows;
  double lu_max_rel = 1.0;
  const int lu_repeats = 20000;
  {
    const std::vector<NewtonJacobian> jacs = newton_jacobians(f.t);
    if (jacs.size() == 2) lu_max_rel = 0.0;
    for (const NewtonJacobian& nj : jacs) {
      num::RealMatrix work = nj.jac;
      num::LuFactors<double> dense;
      num::lu_factor_in_place(&work, &dense);
      num::SparseLu sparse;
      work = nj.jac;
      if (dense.singular || !sparse.analyse(nj.pattern, &work)) {
        lu_max_rel = 1.0;  // fails the self-check below
        continue;
      }
      std::vector<double> x_dense = nj.rhs;
      num::lu_solve_in_place(dense, &x_dense);
      std::vector<double> x_sparse = nj.rhs;
      sparse.solve(&x_sparse);
      double err = 0.0;
      for (std::size_t i = 0; i < x_dense.size(); ++i) {
        err = std::max(err, std::abs(x_sparse[i] - x_dense[i]));
      }
      const double max_rel = err / num::max_abs(x_dense);
      lu_max_rel = std::max(lu_max_rel, max_rel);

      // Factoring adopts the input buffer by swap and hands back the old
      // factor buffer: size `work` once, and the two then rotate.
      const std::size_t entries = nj.jac.rows() * nj.jac.cols();
      std::vector<double> x;
      work = nj.jac;
      const double dense_s = oasys::bench::time_best_of(7, [&] {
        for (int i = 0; i < lu_repeats; ++i) {
          std::copy(nj.jac.data(), nj.jac.data() + entries, work.data());
          num::lu_factor_in_place(&work, &dense);
          x = nj.rhs;
          num::lu_solve_in_place(dense, &x);
          benchmark::DoNotOptimize(x.data());
        }
      });
      work = nj.jac;
      const double planned_s = oasys::bench::time_best_of(7, [&] {
        for (int i = 0; i < lu_repeats; ++i) {
          std::copy(nj.jac.data(), nj.jac.data() + entries, work.data());
          if (sparse.refactor(&work)) {
            x = nj.rhs;
            sparse.solve(&x);
          }
          benchmark::DoNotOptimize(x.data());
        }
      });
      lu_rows.push_back({nj.name, nj.jac.rows(), nj.pattern.nnz(),
                         sparse.plan().update_count(), dense_s, planned_s,
                         max_rel});
    }
  }
  const bool accurate_lu = lu_max_rel <= 1e-10;

  // ---- Transient: workspace path wall time (trajectory data) --------------
  sim::TranOptions to;
  to.tstop = 2e-6;
  to.dt = 1e-8;
  to.mode = sim::TranMode::kFixed;
  const sim::TranResult tr1 = sim::transient(f.circuit, f.t, f.op, to);
  const sim::TranResult tr2 = sim::transient(f.circuit, f.t, f.op, to);
  const bool tran_equal = tr1.ok && tr2.ok && tr1.states == tr2.states;
  deterministic &= tran_equal;
  const double tran_s = oasys::bench::time_best_of(3, [&] {
    sim::TranResult r = sim::transient(f.circuit, f.t, f.op, to);
    benchmark::DoNotOptimize(r);
  });

  // ---- Adaptive transient: fixed reference vs adaptive stepping ----------
  // Stiff comparator-style slew fixture: a long flat region (the
  // controller grows to dt_max) ending in a near-instant edge (a source
  // breakpoint the steps land on), then a settling tail.  Fixed stepping
  // pays the whole window at the resolution the edge needs; adaptive pays
  // it only around the edge.
  ckt::Circuit stiff;
  const double stiff_tau = 1e-6;
  {
    const auto in = stiff.node("in");
    const auto out = stiff.node("out");
    stiff.add_vsource("V1", in, ckt::kGround,
                      ckt::Waveform::pulse(0.0, 1.0, 50.0 * stiff_tau, 1e-9,
                                           1e-9, 100.0 * stiff_tau,
                                           200.0 * stiff_tau));
    stiff.add_resistor("R1", in, out, 1e3);
    stiff.add_capacitor("C1", out, ckt::kGround, stiff_tau / 1e3);
  }
  const sim::OpResult stiff_op = sim::dc_operating_point(stiff, f.t);
  const sim::MnaLayout stiff_layout(stiff);
  const ckt::NodeId stiff_out = stiff.node("out");

  sim::TranOptions at_fixed;
  at_fixed.tstop = 100.0 * stiff_tau;
  at_fixed.dt = stiff_tau / 10.0;  // 1000 fixed steps
  at_fixed.mode = sim::TranMode::kFixed;
  sim::TranOptions at_adapt = at_fixed;
  at_adapt.mode = sim::TranMode::kAdaptive;

  const sim::TranResult at_f1 =
      sim::transient(stiff, f.t, stiff_op, at_fixed);
  const obs::MetricsSnapshot at_before = obs::Registry::global().snapshot();
  const sim::TranResult at_a1 =
      sim::transient(stiff, f.t, stiff_op, at_adapt);
  const obs::MetricsSnapshot at_after = obs::Registry::global().snapshot();
  const sim::TranResult at_a2 =
      sim::transient(stiff, f.t, stiff_op, at_adapt);
  const bool adaptive_repeat_equal =
      at_f1.ok && at_a1.ok && at_a2.ok && at_a1.time == at_a2.time &&
      at_a1.states == at_a2.states;
  deterministic &= adaptive_repeat_equal;

  auto counter_value = [](const obs::MetricsSnapshot& s, const char* name) {
    const obs::MetricEntry* e = s.find(name);
    return e != nullptr ? e->counter : std::uint64_t{0};
  };
  const std::uint64_t adaptive_rejects =
      counter_value(at_after, "tran.adaptive.rejects") -
      counter_value(at_before, "tran.adaptive.rejects");

  // Waveform-derived metrics through dense output: the two grids differ,
  // the physics may not.
  auto stiff_metrics = [&](const sim::TranResult& tr) {
    std::vector<double> m;
    const auto sl = sim::slew_rate(tr, stiff_layout, stiff_out);
    m.push_back(sl.has_value() ? sl->rising : 0.0);
    m.push_back(tr.voltage_at(stiff_layout, stiff_out, 60.0 * stiff_tau));
    m.push_back(tr.voltage_at(stiff_layout, stiff_out, at_fixed.tstop));
    return m;
  };
  // Accuracy is judged against a converged fine-grid reference (tau/100),
  // not against the coarse fixed run: at tau/10 the fixed grid itself
  // under-resolves the edge, and charging adaptive for disagreeing with
  // an under-resolved answer would reward the wrong engine.
  sim::TranOptions at_ref = at_fixed;
  at_ref.dt = stiff_tau / 100.0;
  const sim::TranResult at_r1 = sim::transient(stiff, f.t, stiff_op, at_ref);
  const std::vector<double> m_ref = stiff_metrics(at_r1);
  const std::vector<double> m_fixed = stiff_metrics(at_f1);
  const std::vector<double> m_adapt = stiff_metrics(at_a1);
  auto max_deviation = [&](const std::vector<double>& m) {
    double worst = 0.0;
    for (std::size_t i = 0; i < m_ref.size(); ++i) {
      const double denom = std::max(std::abs(m_ref[i]), 1e-12);
      worst = std::max(worst, std::abs(m[i] - m_ref[i]) / denom);
    }
    return worst;
  };
  const double max_metric_deviation_rel = max_deviation(m_adapt);
  const double fixed_metric_deviation_rel = max_deviation(m_fixed);
  deterministic &= at_r1.ok;

  const double at_fixed_s = oasys::bench::time_best_of(5, [&] {
    sim::TranResult r = sim::transient(stiff, f.t, stiff_op, at_fixed);
    benchmark::DoNotOptimize(r);
  });
  const double at_adapt_s = oasys::bench::time_best_of(5, [&] {
    sim::TranResult r = sim::transient(stiff, f.t, stiff_op, at_adapt);
    benchmark::DoNotOptimize(r);
  });
  const double step_reduction =
      static_cast<double>(at_f1.time.size() - 1) /
      static_cast<double>(at_a1.time.size() - 1);

  // The verification slew fixture of paper case A (the follower step that
  // measure_opamp runs): the stiff fixture's edge lands on its corners and
  // never rejects, so this is the run that exercises the reject path.
  // Its slew is judged against a dt/64 fixed-step run.
  const synth::SynthesisResult case_a =
      synth::synthesize_opamp(f.t, synth::spec_case_a());
  const synth::MeasuredOpAmp case_a_m =
      synth::measure_opamp(*case_a.best(), f.t);
  const synth::SlewBench follower =
      synth::slew_bench(*case_a.best(), f.t, case_a_m.perf.gbw);
  sim::TranOptions fo_adapt = follower.tran;
  fo_adapt.mode = sim::TranMode::kAdaptive;
  sim::TranOptions fo_fixed = follower.tran;
  fo_fixed.mode = sim::TranMode::kFixed;
  sim::TranOptions fo_ref = fo_fixed;
  fo_ref.dt /= 64.0;
  const obs::MetricsSnapshot fo_before = obs::Registry::global().snapshot();
  const double fo_slew =
      synth::follower_slew(follower, f.t, fo_adapt).value_or(0.0);
  const obs::MetricsSnapshot fo_after = obs::Registry::global().snapshot();
  const std::uint64_t fo_steps =
      counter_value(fo_after, "tran.adaptive.steps") -
      counter_value(fo_before, "tran.adaptive.steps");
  const std::uint64_t fo_rejects =
      counter_value(fo_after, "tran.adaptive.rejects") -
      counter_value(fo_before, "tran.adaptive.rejects");
  const double fo_fixed_slew =
      synth::follower_slew(follower, f.t, fo_fixed).value_or(0.0);
  const double fo_ref_slew =
      synth::follower_slew(follower, f.t, fo_ref).value_or(0.0);
  deterministic &= fo_slew > 0.0 && fo_ref_slew > 0.0;

  // ---- Transient step: paper case C's verification follower ------------
  // Newton effort per accepted step (the contraction stop), and the
  // capacitance refresh after each accepted step: fixed slots against the
  // dense eval + n x n build + nonzero scan they replaced, bit for bit at
  // every accepted sample.
  const synth::SynthesisResult case_c =
      synth::synthesize_opamp(f.t, synth::spec_case_c());
  const synth::MeasuredOpAmp case_c_m =
      synth::measure_opamp(*case_c.best(), f.t);
  const synth::SlewBench step_bench =
      synth::slew_bench(*case_c.best(), f.t, case_c_m.perf.gbw);
  const sim::OpResult step_op =
      sim::dc_operating_point(step_bench.circuit, f.t);
  const obs::MetricsSnapshot ts_before = obs::Registry::global().snapshot();
  const sim::TranResult step_tr =
      sim::transient(step_bench.circuit, f.t, step_op, step_bench.tran);
  const obs::MetricsSnapshot ts_after = obs::Registry::global().snapshot();
  const auto ts_delta = [&](const char* name) {
    return counter_value(ts_after, name) - counter_value(ts_before, name);
  };
  const std::uint64_t ts_steps = ts_delta("sim.tran.steps_accepted");
  const std::uint64_t ts_iterations = ts_delta("sim.tran.newton_iterations");
  const std::uint64_t ts_rejects = ts_delta("tran.adaptive.rejects");
  deterministic &= step_op.converged && step_tr.ok && ts_steps > 0;

  const sim::NonlinearSystem step_sys(step_bench.circuit, f.t);
  sim::CapSlots slots;
  slots.build(step_sys);
  sim::DeviceTable slot_devices, dense_devices;
  step_sys.build_device_table(&slot_devices);
  step_sys.build_device_table(&dense_devices);
  std::vector<sim::DeviceOp> dense_ops;
  num::RealMatrix dense_c;
  std::vector<double> dense_entries;
  bool refresh_equal = step_tr.ok;
  for (const std::vector<double>& x : step_tr.states) {
    slots.refresh(step_sys, x, &slot_devices);
    dense_cap_refresh(step_sys, x, &dense_ops, &dense_devices, &dense_c,
                      &dense_entries);
    refresh_equal &= slots_equal_dense(slots, dense_c);
  }
  const int refresh_repeats = 50;
  const PairedTiming refresh_time = time_pairs(
      timing_pairs,
      [&] {
        for (int i = 0; i < refresh_repeats; ++i) {
          for (const std::vector<double>& x : step_tr.states) {
            dense_cap_refresh(step_sys, x, &dense_ops, &dense_devices,
                              &dense_c, &dense_entries);
          }
        }
        benchmark::DoNotOptimize(dense_entries.data());
      },
      [&] {
        for (int i = 0; i < refresh_repeats; ++i) {
          for (const std::vector<double>& x : step_tr.states) {
            slots.refresh(step_sys, x, &slot_devices);
          }
        }
        benchmark::DoNotOptimize(slots.value().data());
      });
  const double refreshes =
      static_cast<double>(refresh_repeats) *
      static_cast<double>(std::max<std::size_t>(step_tr.states.size(), 1));
  const double step_tran_s = oasys::bench::time_best_of(7, [&] {
    sim::TranResult r =
        sim::transient(step_bench.circuit, f.t, step_op, step_bench.tran);
    benchmark::DoNotOptimize(r);
  });

  // Metrics block: registry contents of one canonical run of each engine
  // (one DC operating point, one AC sweep, one transient) after a reset,
  // so the record carries solver-effort counts alongside the timings.
  obs::Registry::global().reset();
  {
    sim::OpOptions canon = warm;
    sim::OpResult op = sim::dc_operating_point(f.circuit, f.t, canon, &ws);
    benchmark::DoNotOptimize(op);
    sim::AcResult ac = sim::ac_analysis(f.circuit, f.t, f.op, freqs, 1);
    benchmark::DoNotOptimize(ac);
    sim::TranResult tr = sim::transient(f.circuit, f.t, f.op, to);
    benchmark::DoNotOptimize(tr);
  }
  const std::string metrics =
      obs::metrics_json(obs::Registry::global().snapshot());

  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 2;
  }
  std::fprintf(out,
               "{\"bench\": \"sim_perf\", \"build_type\": \"%s\", "
               "\"hardware_jobs\": %zu, \"matrix_size\": %zu,\n",
               OASYS_BUILD_TYPE, exec::hardware_jobs(), n);
  std::fprintf(out,
               " \"dc_newton\": {\"solves\": %d, \"baseline_seconds\": %.6f, "
               "\"workspace_seconds\": %.6f, \"speedup\": %.3f},\n",
               dc_solves, dc_base_s, dc_ws_s, dc_base_s / dc_ws_s);
  // "speedup" is the median of the per-pair ratios, "speedup_min" and
  // "speedup_max" their spread.
  std::fprintf(out,
               " \"ac_sweep\": {\"points\": %zu, \"repeats\": %d, "
               "\"pairs\": %d, \"baseline_seconds\": %.6f, "
               "\"workspace_seconds\": %.6f, \"speedup\": %.3f, "
               "\"speedup_min\": %.3f, \"speedup_max\": %.3f, "
               "\"baseline_max_rel\": %.3e},\n",
               freqs.size(), ac_repeats, timing_pairs, ac_time.base_s,
               ac_time.kernel_s, ac_time.ratio_median, ac_time.ratio_min,
               ac_time.ratio_max, ac_baseline_max_rel);
  std::fprintf(out,
               " \"noise\": {\"points\": %zu, \"sources\": %zu, "
               "\"repeats\": %d, \"pairs\": %d, "
               "\"baseline_seconds\": %.6f, \"kernel_seconds\": %.6f, "
               "\"speedup\": %.3f, \"speedup_min\": %.3f, "
               "\"speedup_max\": %.3f, \"baseline_max_rel\": %.3e},\n",
               noise_freqs.size(), sources.size(), noise_repeats,
               timing_pairs, noise_time.base_s, noise_time.kernel_s,
               noise_time.ratio_median, noise_time.ratio_min,
               noise_time.ratio_max, noise_max_rel);
  std::fprintf(out,
               " \"newton_lu\": {\"spec\": \"C\", \"repeats\": %d, "
               "\"baseline_max_rel\": %.3e, \"jacobians\": [",
               lu_repeats, lu_max_rel);
  for (std::size_t i = 0; i < lu_rows.size(); ++i) {
    const NewtonLuRow& row = lu_rows[i];
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"n\": %zu, \"nnz\": %zu, "
                 "\"plan_updates\": %zu, \"dense_seconds\": %.6f, "
                 "\"planned_seconds\": %.6f, \"speedup\": %.3f, "
                 "\"baseline_max_rel\": %.3e}",
                 i == 0 ? "" : ",", row.name, row.n, row.nnz,
                 row.plan_updates, row.dense_s, row.planned_s,
                 row.dense_s / row.planned_s, row.max_rel);
  }
  std::fprintf(out, "]},\n");
  std::fprintf(out,
               " \"transient\": {\"steps\": %zu, \"seconds\": %.6f},\n",
               tr1.time.size() - 1, tran_s);
  std::fprintf(
      out,
      " \"tran_step\": {\"spec\": \"C\", \"n\": %zu, \"slots\": %zu, "
      "\"steps\": %llu, \"rejects\": %llu, \"newton_iterations\": %llu, "
      "\"newton_per_step\": %.3f, \"seconds\": %.6f, "
      "\"refresh_pairs\": %d, \"refresh_seconds_per_step\": %.9f, "
      "\"baseline_refresh_seconds_per_step\": %.9f, "
      "\"refresh_speedup\": %.3f, \"refresh_speedup_min\": %.3f, "
      "\"refresh_speedup_max\": %.3f, \"refresh_bitwise_equal\": %s},\n",
      step_sys.layout().size(), slots.value().size(),
      static_cast<unsigned long long>(ts_steps),
      static_cast<unsigned long long>(ts_rejects),
      static_cast<unsigned long long>(ts_iterations),
      static_cast<double>(ts_iterations) /
          static_cast<double>(std::max<std::uint64_t>(ts_steps, 1)),
      step_tran_s, timing_pairs, refresh_time.kernel_s / refreshes,
      refresh_time.base_s / refreshes, refresh_time.ratio_median,
      refresh_time.ratio_min, refresh_time.ratio_max,
      refresh_equal ? "true" : "false");
  std::fprintf(out,
               " \"adaptive_tran\": {\"tstop\": %.6e, \"dt\": %.6e, "
               "\"rtol\": %.3e, \"atol\": %.3e,\n",
               at_fixed.tstop, at_fixed.dt,
               sim::tran_tolerance_default().rtol,
               sim::tran_tolerance_default().atol);
  std::fprintf(out,
               "  \"reference\": {\"dt\": %.6e, \"steps\": %zu, "
               "\"slew\": %.9e},\n",
               at_ref.dt, at_r1.time.size() - 1, m_ref[0]);
  std::fprintf(out,
               "  \"fixed\": {\"steps\": %zu, \"seconds\": %.6f, "
               "\"slew\": %.9e, \"metric_deviation_rel\": %.6e},\n",
               at_f1.time.size() - 1, at_fixed_s, m_fixed[0],
               fixed_metric_deviation_rel);
  std::fprintf(out,
               "  \"adaptive\": {\"steps\": %zu, \"rejects\": %llu, "
               "\"seconds\": %.6f, \"slew\": %.9e, "
               "\"repeat_bitwise_equal\": %s},\n",
               at_a1.time.size() - 1,
               static_cast<unsigned long long>(adaptive_rejects), at_adapt_s,
               m_adapt[0], adaptive_repeat_equal ? "true" : "false");
  std::fprintf(out,
               "  \"step_reduction\": %.3f, \"speedup\": %.3f, "
               "\"max_metric_deviation_rel\": %.6e,\n",
               step_reduction, at_fixed_s / at_adapt_s,
               max_metric_deviation_rel);
  std::fprintf(out,
               "  \"follower\": {\"spec\": \"A\", \"tstop\": %.6e, "
               "\"dt\": %.6e, \"steps\": %llu, \"rejects\": %llu, "
               "\"slew\": %.9e, \"fixed_slew\": %.9e, "
               "\"reference_slew\": %.9e, \"deviation_rel\": %.6e}},\n",
               follower.tran.tstop, follower.tran.dt,
               static_cast<unsigned long long>(fo_steps),
               static_cast<unsigned long long>(fo_rejects), fo_slew,
               fo_fixed_slew, fo_ref_slew,
               std::abs(fo_slew - fo_ref_slew) / fo_ref_slew);
  std::fprintf(out,
               " \"determinism\": {\"dc_bitwise_equal\": %s, "
               "\"ac_baseline_max_rel\": %.3e, \"ac_jobs_invariant\": %s, "
               "\"tran_repeat_equal\": %s, "
               "\"adaptive_repeat_equal\": %s},\n",
               dc_equal ? "true" : "false", ac_baseline_max_rel,
               ac_jobs_invariant ? "true" : "false",
               tran_equal ? "true" : "false",
               adaptive_repeat_equal ? "true" : "false");
  std::fprintf(out, " \"metrics\": %s}\n", metrics.c_str());
  std::fclose(out);

  if (!deterministic) {
    std::fprintf(stderr, "FAIL: determinism self-check failed\n");
    return 1;
  }
  if (!accurate_ac || !accurate_noise) {
    std::fprintf(stderr,
                 "FAIL: kernel vs LU baseline: ac %.3e, noise %.3e "
                 "(bound 1e-6)\n",
                 ac_baseline_max_rel, noise_max_rel);
    return 1;
  }
  if (!refresh_equal) {
    std::fprintf(stderr,
                 "FAIL: slot capacitance refresh differs from the dense "
                 "build\n");
    return 1;
  }
  if (!accurate_lu) {
    std::fprintf(stderr,
                 "FAIL: planned sparse LU vs dense LU: %.3e (bound 1e-10)\n",
                 lu_max_rel);
    return 1;
  }
  std::printf(
      "wrote %s (dc speedup %.2fx, ac speedup %.2fx, noise speedup %.2fx, "
      "newton lu %.3e from dense, adaptive tran %.1fx fewer steps)\n",
      path, dc_base_s / dc_ws_s, ac_time.ratio_median,
      noise_time.ratio_median, lu_max_rel, step_reduction);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!oasys::bench::apply_jobs_flag(argc, argv)) return 2;
  if (const char* path = oasys::bench::parse_json_flag(argc, argv)) {
    return emit_json(path);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
