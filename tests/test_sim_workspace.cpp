// Golden-equivalence tests for SimWorkspace buffer reuse: every analysis
// must produce bit-for-bit identical numbers whether its scratch buffers
// are fresh, reused, external, or absent, and at every --jobs setting.
// The AC and DC baselines below replicate the exact pre-workspace code
// shape (per-iteration allocation, by-value LU) so the equivalence is
// checked against the arithmetic this repo shipped before workspace reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <ostream>
#include <vector>

#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "obs/metrics.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/small_signal.h"
#include "spice/sweep.h"
#include "spice/tran.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::sim {
namespace {

using ckt::Circuit;
using ckt::Waveform;
using tech::Technology;
using util::um;
using Cplx = std::complex<double>;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

// A differential-pair amplifier with a mirror load, bias chain, and output
// stage — big enough (multi-device, MOS caps) that the workspace buffers
// see realistic fill patterns, small enough to keep the suite fast.
Circuit amp_circuit() {
  const Technology& t = tech5();
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto inp = c.node("inp");
  const auto inn = c.node("inn");
  const auto tail = c.node("tail");
  const auto d1 = c.node("d1");
  const auto out = c.node("out");
  const auto vbn = c.node("vbn");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(t.vdd));
  c.add_vsource("VIP", inp, ckt::kGround, Waveform::ac(2.5, 0.5, 0.0));
  c.add_vsource("VIN", inn, ckt::kGround, Waveform::ac(2.5, 0.5, 180.0));
  c.add_isource("IB", vdd, vbn, Waveform::dc(util::ua(20.0)));
  c.add_mosfet("MB", vbn, vbn, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(50.0), um(10.0));
  c.add_mosfet("MT", tail, vbn, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(100.0), um(10.0));
  c.add_mosfet("M1", d1, inp, tail, ckt::kGround, mos::MosType::kNmos,
               um(60.0), um(5.0));
  c.add_mosfet("M2", out, inn, tail, ckt::kGround, mos::MosType::kNmos,
               um(60.0), um(5.0));
  c.add_mosfet("M3", d1, d1, vdd, vdd, mos::MosType::kPmos, um(30.0),
               um(5.0));
  c.add_mosfet("M4", out, d1, vdd, vdd, mos::MosType::kPmos, um(30.0),
               um(5.0));
  c.add_capacitor("CL", out, ckt::kGround, 5e-12);
  return c;
}

// The stiff circuit from DcHomotopy.SteppingRescuesCrippledNewton: with the
// Newton budget cut low the solver falls through to the continuation
// strategies, so a workspace threaded through is reused across all three.
Circuit stiff_circuit() {
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto vbn = c.node("vbn");
  const auto vbn2 = c.node("vbn2");
  const auto out = c.node("out");
  const auto mid = c.node("mid");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(10.0));
  c.add_resistor("RREF", vdd, vbn2, 300e3);
  c.add_mosfet("MB1", vbn, vbn, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(50.0), um(10.0));
  c.add_mosfet("MB2", vbn2, vbn2, vbn, ckt::kGround, mos::MosType::kNmos,
               um(50.0), um(5.0));
  c.add_mosfet("M5", mid, vbn, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(100.0), um(10.0));
  c.add_mosfet("M6", out, mid, vdd, vdd, mos::MosType::kPmos, um(200.0),
               um(5.0));
  c.add_mosfet("M7", out, vbn, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(100.0), um(10.0));
  c.add_resistor("RMID", vdd, mid, 200e3);
  return c;
}

void expect_same_op(const OpResult& a, const OpResult& b) {
  ASSERT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.solution, b.solution);  // element-wise bit-for-bit
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].id, b.devices[i].id);
    EXPECT_EQ(a.devices[i].gm, b.devices[i].gm);
    EXPECT_EQ(a.devices[i].gds, b.devices[i].gds);
  }
}

// The deterministic sim.lu.* counters: how often the Newton LU planned,
// refactored in a plan, and re-planned after a failed pivot.
struct LuCounts {
  std::uint64_t analyses = 0, refactors = 0, replans = 0;
  bool operator==(const LuCounts&) const = default;
  LuCounts operator-(const LuCounts& o) const {
    return {analyses - o.analyses, refactors - o.refactors,
            replans - o.replans};
  }
  friend std::ostream& operator<<(std::ostream& os, const LuCounts& c) {
    return os << c.analyses << " analyses, " << c.refactors
              << " refactors, " << c.replans << " replans";
  }
};

LuCounts lu_counts() {
  const obs::MetricsSnapshot s = obs::Registry::global().snapshot();
  const auto value = [&](const char* name) {
    const obs::MetricEntry* e = s.find(name);
    return e != nullptr ? e->counter : std::uint64_t{0};
  };
  return {value("sim.lu.analyses"), value("sim.lu.refactors"),
          value("sim.lu.replans")};
}

// ---- DC -----------------------------------------------------------------------

TEST(WorkspaceGoldenDc, WithWithoutAndReusedWorkspaceIdentical) {
  const Circuit c = amp_circuit();
  const OpResult plain = dc_operating_point(c, tech5());
  ASSERT_TRUE(plain.converged);

  SimWorkspace ws;
  const OpResult fresh = dc_operating_point(c, tech5(), {}, &ws);
  expect_same_op(plain, fresh);

  // Dirty the workspace on a different (differently sized) circuit, then
  // reuse it: buffers resize and results stay identical.
  const Circuit other = stiff_circuit();
  (void)dc_operating_point(other, tech5(), {}, &ws);
  const OpResult reused = dc_operating_point(c, tech5(), {}, &ws);
  expect_same_op(plain, reused);

  // Same pattern, different bias: the input railed (the pair switched hard
  // to one side), then back at the normal bias.  Each call must start its
  // LU from no plan, not from the one the workspace's last call ended
  // with: the same bits and the same sim.lu.* work as on a fresh
  // workspace.  (A converged DC solution is rarely sensitive to the pivot
  // order in its last bits, so the counts are what expose a plan carried
  // over.)
  Circuit railed = c;
  const std::size_t vip = *railed.find_vsource("VIP");
  railed.vsource(vip).wave = railed.vsource(vip).wave.with_dc(4.5);
  OpOptions from_null;
  from_null.initial_guess = plain.solution;
  const auto fresh_run = [&](const Circuit& circuit, const OpOptions& o,
                             LuCounts* work) {
    SimWorkspace fresh_ws;
    const LuCounts before = lu_counts();
    OpResult r = dc_operating_point(circuit, tech5(), o, &fresh_ws);
    *work = lu_counts() - before;
    return r;
  };
  const auto reused_run = [&](const Circuit& circuit, const OpOptions& o,
                              LuCounts* work) {
    const LuCounts before = lu_counts();
    OpResult r = dc_operating_point(circuit, tech5(), o, &ws);
    *work = lu_counts() - before;
    return r;
  };
  LuCounts fresh_work, reused_work;
  const OpResult railed_fresh = fresh_run(railed, from_null, &fresh_work);
  ASSERT_TRUE(railed_fresh.converged);
  expect_same_op(railed_fresh, reused_run(railed, from_null, &reused_work));
  EXPECT_EQ(fresh_work, reused_work);
  OpOptions from_rail;
  from_rail.initial_guess = railed_fresh.solution;
  const OpResult back = fresh_run(c, from_rail, &fresh_work);
  ASSERT_TRUE(back.converged);
  expect_same_op(back, reused_run(c, from_rail, &reused_work));
  EXPECT_EQ(fresh_work, reused_work);
  EXPECT_EQ(fresh_work.analyses, 1u);
}

TEST(WorkspaceGoldenDc, ContinuationStrategiesIdenticalWithWorkspace) {
  const Circuit c = stiff_circuit();
  OpOptions crippled;
  crippled.max_iterations = 16;  // plain Newton fails; continuation rescues
  const OpResult plain = dc_operating_point(c, tech5(), crippled);
  ASSERT_TRUE(plain.converged);
  ASSERT_NE(plain.strategy, "newton");

  SimWorkspace ws;
  const OpResult with_ws = dc_operating_point(c, tech5(), crippled, &ws);
  expect_same_op(plain, with_ws);
}

TEST(WorkspaceGoldenDc, MatchesPreWorkspaceByValueNewton) {
  // Replicate the seed's warm Newton loop exactly: fresh Jacobian, residual,
  // RHS, and step vectors per iteration, by-value LU.  The workspace path
  // must match it bit for bit.
  const Circuit c = amp_circuit();
  const OpResult cold = dc_operating_point(c, tech5());
  ASSERT_TRUE(cold.converged);
  OpOptions warm;
  warm.initial_guess = cold.solution;

  NonlinearSystem sys(c, tech5());
  const std::size_t n = sys.layout().size();
  const std::size_t nv = sys.layout().num_node_unknowns();
  std::vector<double> x = warm.initial_guess;
  NonlinearSystem::EvalOptions eval_opts;
  eval_opts.gmin = warm.gmin;
  bool converged = false;
  for (int iter = 0; iter < warm.max_iterations && !converged; ++iter) {
    num::RealMatrix jac(n, n);
    std::vector<double> f(n);
    sys.eval(x, eval_opts, &jac, &f);
    auto lu = num::lu_factor(std::move(jac));
    ASSERT_FALSE(lu.singular);
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -f[i];
    const std::vector<double> dx = num::lu_solve(lu, rhs);
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nv; ++i) {
      max_dv = std::max(max_dv, std::abs(dx[i]));
    }
    double scale = 1.0;
    if (max_dv > warm.vlimit_step) scale = warm.vlimit_step / max_dv;
    for (std::size_t i = 0; i < n; ++i) x[i] += scale * dx[i];
    if (max_dv < warm.vntol) {
      sys.eval(x, eval_opts, nullptr, &f);
      double max_node_residual = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_node_residual = std::max(max_node_residual, std::abs(f[i]));
      }
      if (max_node_residual < warm.abstol) converged = true;
    }
  }
  ASSERT_TRUE(converged);

  SimWorkspace ws;
  const OpResult prod = dc_operating_point(c, tech5(), warm, &ws);
  ASSERT_TRUE(prod.converged);
  EXPECT_EQ(prod.solution, x);
}

TEST(WorkspaceGoldenDc, ContinuationKnobDefaultsMatchClassicSchedule) {
  // The OpOptions continuation knobs default to the values that were
  // hard-coded before they became tunable; a default-constructed run and an
  // explicitly-set run must be the same solve.
  OpOptions defaults;
  EXPECT_EQ(defaults.gmin_step_start, 1e-2);
  EXPECT_EQ(defaults.gmin_step_ratio, 0.1);
  EXPECT_EQ(defaults.source_step_initial, 0.1);
  EXPECT_EQ(defaults.source_step_max, 0.25);
  EXPECT_EQ(defaults.source_step_min, 1e-3);

  const Circuit c = stiff_circuit();
  OpOptions crippled;
  crippled.max_iterations = 16;
  OpOptions explicit_opts = crippled;
  explicit_opts.gmin_step_start = 1e-2;
  explicit_opts.gmin_step_ratio = 0.1;
  explicit_opts.source_step_initial = 0.1;
  explicit_opts.source_step_max = 0.25;
  explicit_opts.source_step_min = 1e-3;
  const OpResult a = dc_operating_point(c, tech5(), crippled);
  const OpResult b = dc_operating_point(c, tech5(), explicit_opts);
  ASSERT_TRUE(a.converged);
  expect_same_op(a, b);
}

// ---- AC -----------------------------------------------------------------------

TEST(WorkspaceGoldenAc, BitwiseIdenticalAcrossJobs) {
  const Circuit c = amp_circuit();
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  const auto freqs = num::logspace(10.0, 1e8, 41);

  const AcResult serial = ac_analysis(c, tech5(), op, freqs, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    const AcResult r = ac_analysis(c, tech5(), op, freqs, jobs);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.solutions, serial.solutions) << "jobs=" << jobs;
  }
}

TEST(WorkspaceGoldenAc, MatchesPreWorkspacePerPointSolve) {
  // The seed's AC loop as the reference: a fresh complex matrix per
  // frequency point, element-wise fill, by-value LU factor and solve.  The
  // kernel solves the reduced Hessenberg-triangular pencil instead, so it
  // agrees to rounding, normwise: |x - x_lu|_inf <= 1e-6 |x_lu|_inf.
  const Circuit c = amp_circuit();
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  const auto freqs = num::logspace(10.0, 1e8, 41);

  NonlinearSystem sys(c, tech5());
  const MnaLayout& layout = sys.layout();
  const std::size_t n = layout.size();
  num::RealMatrix g, cap;
  build_small_signal_matrices(c, layout, op, &g, &cap);
  std::vector<Cplx> rhs(n, Cplx{});
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    if (v.wave.ac_mag() != 0.0) {
      const double ph = util::rad(v.wave.ac_phase_deg());
      rhs[layout.branch_index(k)] = std::polar(v.wave.ac_mag(), ph);
    }
  }
  std::vector<std::vector<Cplx>> expected(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double w = util::kTwoPi * freqs[i];
    num::ComplexMatrix y(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        y(r, col) = Cplx(g(r, col), w * cap(r, col));
      }
    }
    auto lu = num::lu_factor(std::move(y));
    ASSERT_FALSE(lu.singular);
    expected[i] = num::lu_solve(lu, rhs);
  }

  for (const std::size_t jobs :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const AcResult r = ac_analysis(c, tech5(), op, freqs, jobs);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.solutions.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      double err = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        err = std::max(err, std::abs(r.solutions[i][k] - expected[i][k]));
      }
      EXPECT_LE(err, 1e-6 * num::max_abs(expected[i]))
          << "jobs=" << jobs << " f=" << freqs[i];
    }
  }
}

// ---- Transient ----------------------------------------------------------------

TEST(WorkspaceGoldenTran, RepeatRunsBitwiseIdentical) {
  const Circuit c = amp_circuit();
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  TranOptions to;
  to.tstop = 1e-6;
  to.dt = 1e-8;
  const TranResult a = transient(c, tech5(), op, to);
  const TranResult b = transient(c, tech5(), op, to);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.states, b.states);
}

// ---- Sweeps -------------------------------------------------------------------

TEST(WorkspaceGoldenSweep, AcAndTranSweepsJobsInvariant) {
  Circuit c = amp_circuit();
  const std::vector<double> values = {2.3, 2.4, 2.5, 2.6, 2.7};
  const auto freqs = num::logspace(1e3, 1e7, 9);
  TranOptions to;
  to.tstop = 2e-7;
  to.dt = 1e-8;

  const AcSweepResult ac1 =
      ac_sweep_vsource(c, tech5(), "VIP", values, freqs, {}, 1);
  ASSERT_TRUE(ac1.ok) << ac1.error;
  const TranSweepResult tr1 =
      tran_sweep_vsource(c, tech5(), "VIP", values, to, {}, 1);
  ASSERT_TRUE(tr1.ok) << tr1.error;

  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    const AcSweepResult ac =
        ac_sweep_vsource(c, tech5(), "VIP", values, freqs, {}, jobs);
    ASSERT_TRUE(ac.ok) << ac.error;
    ASSERT_EQ(ac.points.size(), ac1.points.size());
    for (std::size_t i = 0; i < ac.points.size(); ++i) {
      EXPECT_EQ(ac.points[i].solutions, ac1.points[i].solutions)
          << "jobs=" << jobs << " point=" << i;
      EXPECT_EQ(ac.ops[i].solution, ac1.ops[i].solution);
    }
    const TranSweepResult tr =
        tran_sweep_vsource(c, tech5(), "VIP", values, to, {}, jobs);
    ASSERT_TRUE(tr.ok) << tr.error;
    ASSERT_EQ(tr.runs.size(), tr1.runs.size());
    for (std::size_t i = 0; i < tr.runs.size(); ++i) {
      EXPECT_EQ(tr.runs[i].states, tr1.runs[i].states)
          << "jobs=" << jobs << " point=" << i;
    }
  }

  // dc_sweep_vsource reuses one workspace across all warm-started points
  // and hands each point's LU plan to the next; identical to
  // point-by-point calls that hand the plan on the same way, each on a
  // fresh workspace.
  const DcSweepResult sweep =
      dc_sweep_vsource(c, tech5(), "VIP", values);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  OpOptions warm;
  num::LuPlan plan;
  const auto src = c.find_vsource("VIP");
  ASSERT_TRUE(src.has_value());
  for (std::size_t i = 0; i < values.size(); ++i) {
    Circuit local = c;
    local.vsource(*src).wave = local.vsource(*src).wave.with_dc(values[i]);
    SimWorkspace ws;
    const OpResult ref =
        dc_operating_point(local, tech5(), warm, &ws, nullptr, &plan);
    ASSERT_TRUE(ref.converged);
    plan = ws.lu.plan();
    EXPECT_EQ(sweep.points[i].solution, ref.solution) << "point=" << i;
    warm.initial_guess = ref.solution;
  }
}

}  // namespace
}  // namespace oasys::sim
