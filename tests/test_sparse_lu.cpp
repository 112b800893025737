// num::SparseLu, the Newton Jacobians' LU, against dense LU.
//
// The reference is dense partial-pivot LU run in extended precision (long
// double): at the null, case C's open-loop Jacobian is ill-conditioned
// enough that num::LuFactors<double> itself lands 2e-12 from it, while the
// sparse solve lands within 2e-14.  The matrices are the paper cases' DC
// Jacobians (open-loop bench at the null, at a railed input and at the
// flat start) and their transient Jacobians (J + 2C/h on the slew
// follower), random sparse matrices (by backward error), and singular
// matrices and circuits, which both LUs must reject the same way.  A plan
// made at one bias and refactored at a very different one (the ICMR sweep)
// must fail its pivot check, after which a fresh plan solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "numeric/sparse_lu.h"
#include "obs/metrics.h"
#include "spice/dc.h"
#include "spice/small_signal.h"
#include "spice/sweep.h"
#include "synth/netlist_builder.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/rng.h"
#include "util/units.h"

namespace oasys::sim {
namespace {

// Normwise relative distance of `x` from `ref`.
double rel_error(const std::vector<double>& x, const std::vector<double>& ref) {
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - ref[i]));
  }
  return err / num::max_abs(ref);
}

// Dense partial-pivot LU solve of a x = b in extended precision.
std::vector<double> reference_solve(const num::RealMatrix& a,
                                    const std::vector<double>& b) {
  const std::size_t n = a.rows();
  std::vector<long double> m(a.data(), a.data() + n * n);
  std::vector<long double> x(b.begin(), b.end());
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::fabs(m[i * n + k]) > std::fabs(m[p * n + k])) p = i;
    }
    for (std::size_t c = 0; c < n; ++c) std::swap(m[k * n + c], m[p * n + c]);
    std::swap(x[k], x[p]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const long double l = m[i * n + k] / m[k * n + k];
      for (std::size_t c = k; c < n; ++c) m[i * n + c] -= l * m[k * n + c];
      x[i] -= l * x[k];
    }
  }
  std::vector<double> out(n);
  for (std::size_t i = n; i-- > 0;) {
    long double acc = x[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= m[i * n + c] * x[c];
    x[i] = acc / m[i * n + i];
    out[i] = static_cast<double>(x[i]);
  }
  return out;
}

// A right-hand side with every entry nonzero and of mixed sign.
std::vector<double> test_rhs(std::size_t n) {
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = (i % 2 == 0 ? 1.0 : -0.5) * (1.0 + 0.1 * static_cast<double>(i));
  }
  return b;
}

// Plans and factors `a` within `pattern` and solves for `b`.
std::vector<double> sparse_solve(const num::SparsePattern& pattern,
                                 num::RealMatrix a,
                                 const std::vector<double>& b) {
  num::SparseLu lu;
  EXPECT_TRUE(lu.analyse(pattern, &a));
  std::vector<double> x = b;
  lu.solve(&x);
  return x;
}

// Jacobian of `c` at `x` (DC, gmin as OpOptions).
num::RealMatrix jacobian_at(const ckt::Circuit& c, const tech::Technology& t,
                            const std::vector<double>& x) {
  NonlinearSystem sys(c, t);
  num::RealMatrix jac;
  NonlinearSystem::EvalOptions eo;
  eo.gmin = OpOptions{}.gmin;
  sys.eval(x, eo, &jac, nullptr);
  return jac;
}

// Every nonzero of `a` lies in `pattern`.
bool within(const num::RealMatrix& a, const num::SparsePattern& pattern) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != 0.0 && !pattern.has(r, c)) return false;
    }
  }
  return true;
}

// One paper case on one process: the open-loop bench with its Jacobian at
// the null, at a railed input and at the flat start, and the slew
// follower's transient Jacobian at its operating point.
struct CaseJacobians {
  std::string name;
  num::SparsePattern dc_pattern;
  num::RealMatrix at_null, railed, flat;
  std::vector<double> dc_rhs;  // the offset border's RHS: -df/dvid
  num::SparsePattern tran_pattern;
  num::RealMatrix tran;
  std::vector<double> tran_rhs;  // a unit step on the follower's input
};

std::vector<CaseJacobians> paper_case_jacobians() {
  std::vector<CaseJacobians> out;
  for (const tech::Technology& t :
       {tech::five_micron(), tech::three_micron()}) {
    for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
      const synth::SynthesisResult r = synth::synthesize_opamp(t, spec);
      if (r.best() == nullptr) continue;
      CaseJacobians cj;
      cj.name = spec.name + " on " + t.name;
      synth::OpenLoopBench bench(*r.best(), t);
      const synth::OffsetNull null = synth::measure_offset(&bench, t);
      if (!null.ok) continue;
      NonlinearSystem(bench.circuit, t)
          .jacobian_pattern(false, &cj.dc_pattern);
      cj.at_null = jacobian_at(bench.circuit, t, null.op.solution);
      const MnaLayout layout(bench.circuit);
      cj.dc_rhs.assign(layout.size(), 0.0);
      cj.dc_rhs[layout.branch_index(bench.vip_idx)] = 0.5;
      cj.dc_rhs[layout.branch_index(bench.vin_idx)] = -0.5;
      bench.set_vid(null.vid + 1.0);
      OpOptions warm;
      warm.initial_guess = null.op.solution;
      const OpResult railed = dc_operating_point(bench.circuit, t, warm);
      if (!railed.converged) continue;
      cj.railed = jacobian_at(bench.circuit, t, railed.solution);
      cj.flat = jacobian_at(bench.circuit, t,
                            std::vector<double>(null.op.solution.size()));

      const synth::SlewBench sb = synth::slew_bench(*r.best(), t, 1e6);
      const OpResult op = dc_operating_point(sb.circuit, t);
      if (!op.converged) continue;
      NonlinearSystem(sb.circuit, t).jacobian_pattern(true, &cj.tran_pattern);
      cj.tran = jacobian_at(sb.circuit, t, op.solution);
      cj.tran_rhs.assign(cj.tran.rows(), 0.0);
      cj.tran_rhs[MnaLayout(sb.circuit).branch_index(
          *sb.circuit.find_vsource("VSTEP"))] = 1.0;
      num::RealMatrix g, cap;
      build_small_signal_matrices(sb.circuit, MnaLayout(sb.circuit), op, &g,
                                  &cap);
      const double a = 2.0 / sb.tran.dt;  // trapezoidal companion
      for (std::size_t i = 0; i < cap.rows(); ++i) {
        for (std::size_t j = 0; j < cap.cols(); ++j) {
          if (cap(i, j) != 0.0) cj.tran(i, j) += cap(i, j) * a;
        }
      }
      out.push_back(std::move(cj));
    }
  }
  return out;
}

const std::vector<CaseJacobians>& cases() {
  static const std::vector<CaseJacobians> c = paper_case_jacobians();
  return c;
}

TEST(SparseLu, PatternCoversEveryStampOfThePaperCases) {
  ASSERT_EQ(cases().size(), 6u);
  for (const CaseJacobians& c : cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(within(c.at_null, c.dc_pattern));
    EXPECT_TRUE(within(c.railed, c.dc_pattern));
    EXPECT_TRUE(within(c.flat, c.dc_pattern));
    EXPECT_TRUE(within(c.tran, c.tran_pattern));
  }
}

TEST(SparseLu, PaperCaseDcAndTransientJacobiansMatchDenseLu) {
  for (const CaseJacobians& c : cases()) {
    SCOPED_TRACE(c.name);
    for (const num::RealMatrix* a : {&c.at_null, &c.railed, &c.flat}) {
      for (const std::vector<double>& b : {c.dc_rhs, test_rhs(a->rows())}) {
        EXPECT_LE(rel_error(sparse_solve(c.dc_pattern, *a, b),
                            reference_solve(*a, b)),
                  1e-12);
      }
    }
    for (const std::vector<double>& b :
         {c.tran_rhs, test_rhs(c.tran.rows())}) {
      EXPECT_LE(rel_error(sparse_solve(c.tran_pattern, c.tran, b),
                          reference_solve(c.tran, b)),
                1e-12);
    }
  }
}

TEST(SparseLu, RefactorOnTheAnalysedValuesReproducesTheFactors) {
  for (const CaseJacobians& c : cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<double> b = test_rhs(c.at_null.rows());
    num::SparseLu lu;
    num::RealMatrix a = c.at_null;
    ASSERT_TRUE(lu.analyse(c.dc_pattern, &a));
    std::vector<double> analysed = b;
    lu.solve(&analysed);
    a = c.at_null;
    ASSERT_TRUE(lu.refactor(&a));
    std::vector<double> refactored = b;
    lu.solve(&refactored);
    EXPECT_EQ(analysed, refactored);
    // The plan eliminates with far fewer updates than dense elimination.
    const std::size_t n = c.at_null.rows();
    EXPECT_LT(lu.plan().update_count(), n * n * n / 3);
  }
}

// The paper case's op-amp as a unity-gain follower driven by a common-mode
// source, over measure_opamp's ICMR grid: the Jacobian at every converged
// point, from the input pair cut off at one rail to the other rail.
struct IcmrSweep {
  std::string name;
  num::SparsePattern pattern;
  std::vector<num::RealMatrix> jac;
};

std::vector<IcmrSweep> icmr_sweeps() {
  std::vector<IcmrSweep> out;
  for (const tech::Technology& t :
       {tech::five_micron(), tech::three_micron()}) {
    for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
      const synth::SynthesisResult r = synth::synthesize_opamp(t, spec);
      if (r.best() == nullptr) continue;
      ckt::Circuit ic;
      const synth::BuiltOpAmp fn =
          synth::build_opamp(*r.best(), t, ic, ic.node("out"));
      ic.add_vsource("VDD", fn.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
      ic.add_vsource("VSS", fn.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
      ic.add_vsource("VCM", fn.inp, ckt::kGround,
                     ckt::Waveform::dc(t.mid_supply()));
      const std::vector<double> points = num::linspace(
          t.vss + 0.3, t.vdd - 0.3, synth::MeasureOptions{}.icmr_points);
      const DcSweepResult sweep = dc_sweep_vsource(ic, t, "VCM", points);
      if (!sweep.ok) continue;
      IcmrSweep s;
      s.name = spec.name + " on " + t.name;
      NonlinearSystem(ic, t).jacobian_pattern(false, &s.pattern);
      const std::size_t vcm = *ic.find_vsource("VCM");
      for (std::size_t i = 0; i < points.size(); ++i) {
        ic.vsource(vcm).wave = ckt::Waveform::dc(points[i]);
        s.jac.push_back(jacobian_at(ic, t, sweep.points[i].solution));
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

TEST(SparseLu, PlanFromAnotherBiasFailsItsPivotCheckThenReplanSolves) {
  // A plan made at the middle of the ICMR sweep (normal bias) or at either
  // end (the input pair cut off), refactored at every other point: each
  // refactor either passes every pivot check and solves to reference
  // accuracy, or fails, keeps its plan, refuses to solve, and a plan made
  // on the fresh values solves.  Both directions fail somewhere.
  const std::vector<IcmrSweep> sweeps = icmr_sweeps();
  ASSERT_EQ(sweeps.size(), 6u);
  int from_normal = 0, from_cut_off = 0;
  for (const IcmrSweep& s : sweeps) {
    SCOPED_TRACE(s.name);
    const std::size_t last = s.jac.size() - 1;
    for (const std::size_t base : {std::size_t{0}, last / 2, last}) {
      num::SparseLu planner;
      num::RealMatrix a = s.jac[base];
      ASSERT_TRUE(planner.analyse(s.pattern, &a));
      for (std::size_t i = 0; i <= last; ++i) {
        SCOPED_TRACE("plan at " + std::to_string(base) + ", point " +
                     std::to_string(i));
        const std::vector<double> b = test_rhs(s.jac[i].rows());
        std::vector<double> x = b;
        num::SparseLu lu;
        lu.use_plan(planner.plan());
        a = s.jac[i];
        if (!lu.refactor(&a)) {
          ++(base == last / 2 ? from_normal : from_cut_off);
          EXPECT_TRUE(lu.planned());
          EXPECT_THROW(lu.solve(&x), num::SingularMatrixError);
          a = s.jac[i];
          ASSERT_TRUE(lu.analyse(s.pattern, &a));
        }
        lu.solve(&x);
        EXPECT_LE(rel_error(x, reference_solve(s.jac[i], b)), 1e-12);
      }
    }
  }
  EXPECT_GT(from_normal, 0);
  EXPECT_GT(from_cut_off, 0);
}

TEST(SparseLu, RandomSparseMatricesSolveBackwardStably) {
  // Unsymmetric random patterns with random values, n from 1 to 70 (more
  // than one bitset word): the analysis flags singularity exactly when
  // dense LU does, and the normwise backward error of the solution,
  // |b - A x| / (|A| |x| + |b|), stays small.  Not at dense LU's 1e-17:
  // threshold pivoting accepts pivots down to kPivotThreshold of their
  // column's largest entry, which buys sparsity with element growth (up
  // to 1.4e-13 on these dense-ish random matrices; the paper-case
  // Jacobians above solve more accurately than dense LU).
  util::RngStream rng(7, 0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 70);
    num::SparsePattern pattern;
    pattern.reset(n);
    num::RealMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      pattern.add(i, i);
      a(i, i) = rng.next_gauss();
      for (int k = 0; k < 3; ++k) {
        const auto j = static_cast<std::size_t>(rng.next_u64() % n);
        pattern.add(i, j);
        a(i, j) += rng.next_gauss();
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<double> b = test_rhs(n);
    num::SparseLu lu;
    num::RealMatrix work = a;
    const bool factored = lu.analyse(pattern, &work);
    EXPECT_EQ(factored, !num::lu_factor(a).singular);
    if (!factored) continue;
    std::vector<double> x = b;
    lu.solve(&x);
    const std::vector<double> ax = a.multiply(x);
    double residual = 0.0, norm_a = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      residual = std::max(residual, std::abs(b[i] - ax[i]));
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) row += std::abs(a(i, j));
      norm_a = std::max(norm_a, row);
    }
    EXPECT_LE(residual / (norm_a * num::max_abs(x) + num::max_abs(b)),
              1e-12);
  }
}

TEST(SparseLu, SingularMatricesAreReportedLikeDenseLu) {
  // A zero column (a node with no conductance to anything) and two equal
  // rows (two voltage sources across the same node): dense LU flags both
  // singular, and so must the sparse analysis; solving then throws
  // SingularMatrixError from either.
  num::SparsePattern pattern;
  pattern.reset(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) pattern.add(i, j);
  }
  num::RealMatrix floating(3, 3);
  floating(0, 0) = 2.0;
  floating(0, 2) = 1.0;
  floating(2, 0) = 1.0;
  num::RealMatrix parallel(3, 3);
  parallel(0, 1) = 1.0;
  parallel(0, 2) = 1.0;
  parallel(1, 0) = 1.0;
  parallel(2, 0) = 1.0;
  for (const num::RealMatrix* m : {&floating, &parallel}) {
    EXPECT_TRUE(num::lu_factor(*m).singular);
    num::SparseLu lu;
    num::RealMatrix a = *m;
    EXPECT_FALSE(lu.analyse(pattern, &a));
    EXPECT_FALSE(lu.planned());
    std::vector<double> x(3, 1.0);
    EXPECT_THROW(lu.solve(&x), num::SingularMatrixError);
  }
}

TEST(SparseLu, SingularCircuitsFailTheOperatingPoint) {
  // The same two faults as circuits: a gate node nothing drives (no gmin,
  // no homotopy), and two voltage sources in parallel.
  const tech::Technology t = tech::five_micron();
  ckt::Circuit floating;
  {
    const auto vdd = floating.node("vdd");
    const auto gate = floating.node("gate");
    floating.add_vsource("VDD", vdd, ckt::kGround, ckt::Waveform::dc(5.0));
    floating.add_mosfet("M1", vdd, gate, ckt::kGround, ckt::kGround,
                        mos::MosType::kNmos, util::um(10.0), util::um(5.0));
  }
  ckt::Circuit parallel;
  {
    const auto a = parallel.node("a");
    parallel.add_vsource("V1", a, ckt::kGround, ckt::Waveform::dc(1.0));
    parallel.add_vsource("V2", a, ckt::kGround, ckt::Waveform::dc(1.0));
    parallel.add_resistor("R1", a, ckt::kGround, 1e3);
  }
  OpOptions bare;
  bare.gmin = 0.0;
  bare.try_gmin_stepping = false;
  bare.try_source_stepping = false;
  for (const ckt::Circuit* c : {&floating, &parallel}) {
    NonlinearSystem sys(*c, t);
    num::SparsePattern pattern;
    sys.jacobian_pattern(false, &pattern);
    NonlinearSystem::EvalOptions eo;
    eo.gmin = 0.0;
    num::RealMatrix jac;
    sys.eval(std::vector<double>(sys.layout().size()), eo, &jac, nullptr);
    EXPECT_TRUE(num::lu_factor(jac).singular);
    num::SparseLu lu;
    EXPECT_FALSE(lu.analyse(pattern, &jac));
    EXPECT_FALSE(dc_operating_point(*c, t, bare).converged);
  }
}

TEST(SparseLu, MeasureOpampPlansEachBenchOnce) {
  // The open-loop bench's DC solves share one Jacobian pattern, so
  // measure_opamp plans it once, at the vid = 0 solve, and hands the plan
  // on to the bordered null and the two swing solves.  The rest are the
  // follower's slew operating point (its flat-start plan fails once at the
  // first real bias on cases B and C and re-plans), the transient and the
  // ICMR sweep: 4 analyses on case A, 6 on B and C.
  const tech::Technology t = tech::five_micron();
  const auto analyses = [] {
    const obs::MetricsSnapshot s = obs::Registry::global().snapshot();
    const obs::MetricEntry* e = s.find("sim.lu.analyses");
    return e != nullptr ? e->counter : std::uint64_t{0};
  };
  const std::pair<core::OpAmpSpec, std::uint64_t> cases[] = {
      {synth::spec_case_a(), 4u},
      {synth::spec_case_b(), 6u},
      {synth::spec_case_c(), 6u}};
  for (const auto& [spec, expected] : cases) {
    const synth::SynthesisResult r = synth::synthesize_opamp(t, spec);
    ASSERT_TRUE(r.success()) << spec.name;
    const std::uint64_t before = analyses();
    const synth::MeasuredOpAmp m = synth::measure_opamp(*r.best(), t);
    ASSERT_TRUE(m.ok) << m.error;
    EXPECT_EQ(analyses() - before, expected) << "case " << spec.name;
  }
}

}  // namespace
}  // namespace oasys::sim
