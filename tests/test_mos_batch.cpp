// Equivalence and derivative suite for the batched (SoA) MOS path.
//
// The batch kernel's contract is bit-for-bit identity with the scalar
// Level-1 reference (mos::evaluate_core), so every comparison here is
// EXPECT_EQ on doubles — no tolerances.  The suite covers the kernel
// itself over dense bias grids and exact region boundaries, the device
// table build (constants, mismatch, geometry validation), the full MNA
// eval (Jacobian, residual, DeviceOp capture) against a test-local scalar
// reference built on mos::evaluate_terminal, the table guards, and the
// sim.device_eval.* counters.  The finite-difference tests pin the
// *scalar* derivatives to the model's own current — the batch path
// inherits them through bitwise identity.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "mos/level1.h"
#include "mos/level1_batch.h"
#include "netlist/circuit.h"
#include "obs/metrics.h"
#include "spice/dc.h"
#include "spice/mna.h"
#include "spice/workspace.h"
#include "tech/builtin.h"
#include "util/rng.h"
#include "util/units.h"

namespace oasys::mos {
namespace {

using tech::MosParams;
using tech::Technology;
using util::um;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

// Loads every grid point as one slot of a batch (same device constants in
// each slot), evaluates, and checks each slot against the scalar core.
void expect_batch_matches_scalar(const MosParams& p, const Geometry& g,
                                 double dvt,
                                 const std::vector<CoreBias>& biases) {
  CoreEvalBatch b;
  b.resize(biases.size());
  for (std::size_t i = 0; i < biases.size(); ++i) {
    b.load_device(i, p, g, dvt);
    b.vgs[i] = biases[i].vgs;
    b.vds[i] = biases[i].vds;
    b.vbs[i] = biases[i].vbs;
  }
  evaluate_core_batch(&b);

  MosParams eff = p;
  eff.vt0 += dvt;  // the scalar path's mismatch application
  for (std::size_t i = 0; i < biases.size(); ++i) {
    const CoreEval e = evaluate_core(eff, g, biases[i]);
    EXPECT_EQ(b.region_at(i), e.region) << "slot " << i;
    EXPECT_EQ(b.id[i], e.id) << "slot " << i;
    EXPECT_EQ(b.gm[i], e.gm) << "slot " << i;
    EXPECT_EQ(b.gds[i], e.gds) << "slot " << i;
    EXPECT_EQ(b.gmb[i], e.gmb) << "slot " << i;
    EXPECT_EQ(b.vth[i], e.vth) << "slot " << i;
    EXPECT_EQ(b.vov[i], e.vov) << "slot " << i;
    EXPECT_EQ(b.vdsat[i], e.vdsat) << "slot " << i;
  }
}

std::vector<CoreBias> dense_bias_grid() {
  std::vector<CoreBias> biases;
  for (double vgs = -1.0; vgs <= 6.0; vgs += 0.25) {
    for (double vds = 0.0; vds <= 5.0; vds += 0.25) {
      for (double vbs = -3.0; vbs <= 0.0; vbs += 0.5) {
        biases.push_back({vgs, vds, vbs});
      }
    }
  }
  return biases;
}

TEST(BatchCore, MatchesScalarOnDenseGridNmos) {
  expect_batch_matches_scalar(tech5().nmos, {um(50.0), um(5.0), 1}, 0.0,
                              dense_bias_grid());
}

TEST(BatchCore, MatchesScalarOnDenseGridPmosParams) {
  // The core is frame-agnostic; PMOS parameters exercise different
  // kp/gamma/lambda magnitudes through the same expressions.
  expect_batch_matches_scalar(tech5().pmos, {um(30.0), um(5.0), 1}, 0.0,
                              dense_bias_grid());
}

TEST(BatchCore, MatchesScalarWithMultiplicityAndMismatch) {
  expect_batch_matches_scalar(tech5().nmos, {um(20.0), um(10.0), 4}, 0.0,
                              dense_bias_grid());
  expect_batch_matches_scalar(tech5().nmos, {um(50.0), um(5.0), 1}, 7.5e-3,
                              dense_bias_grid());
}

TEST(BatchCore, MatchesScalarAtExactRegionBoundaries) {
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  // vsb = 0 leaves vth == vt0 exactly, so these biases sit *on* the
  // region predicates, where a reordered comparison would flip a branch.
  const std::vector<CoreBias> biases = {
      {p.vt0 + 0.5, 0.5, 0.0},    // vds == vov: triode/saturation edge
      {p.vt0, 1.0, 0.0},          // vov == 0: cutoff edge
      {p.vt0 + 1e-15, 1.0, 0.0},  // one ulp-ish above threshold
      {p.vt0 + 0.5, 0.0, 0.0},    // vds == 0 in triode
      {p.vt0 + 0.5, 1.0, p.phi - 0.01},   // phi + vsb == kMinArg exactly
      {p.vt0 + 0.5, 1.0, p.phi - 0.005},  // clamped body-bias branch
      {p.vt0 + 0.5, 1.0, p.phi},          // arg clamps at zero vsb margin
  };
  expect_batch_matches_scalar(p, g, 0.0, biases);
}

TEST(BatchCore, MatchesScalarWhenBetaIsZero) {
  MosParams p = tech5().nmos;
  p.kp = 0.0;  // beta <= 0 forces cutoff regardless of bias
  expect_batch_matches_scalar(
      p, {um(50.0), um(5.0), 1}, 0.0,
      {{p.vt0 + 1.0, 2.0, 0.0}, {p.vt0 + 0.5, 0.1, -1.0}});
}

TEST(BatchCore, LoadDevicePrecomputesEffectiveParams) {
  const MosParams& p = tech5().nmos;
  const Geometry g{um(40.0), um(8.0), 3};
  CoreEvalBatch b;
  b.resize(2);
  b.load_device(0, p, g, 0.0);
  b.load_device(1, p, g, 0.01);
  EXPECT_EQ(b.w[0], g.w);
  EXPECT_EQ(b.l[0], g.l);
  EXPECT_EQ(b.m[0], 3.0);
  EXPECT_EQ(b.kp[0], p.kp);
  EXPECT_EQ(b.gamma[0], p.gamma);
  EXPECT_EQ(b.phi[0], p.phi);
  EXPECT_EQ(b.vt0[0], p.vt0);
  EXPECT_EQ(b.vt0[1], p.vt0 + 0.01);
  EXPECT_EQ(b.sqrt_phi[0], std::sqrt(p.phi));
  EXPECT_EQ(b.lambda[0], p.lambda_at(g.l));
}

TEST(BatchCore, ResizeSetsEverySlotCount) {
  CoreEvalBatch b;
  b.resize(8);
  EXPECT_EQ(b.size(), 8u);
  b.resize(3);  // shrinking the logical size keeps the arrays consistent
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.region.size(), 3u);
  EXPECT_EQ(b.id.size(), 3u);
  EXPECT_FALSE(b.empty());
}

// ---- Geometry validation (satellite: no more silent 0.0 W/L) ------------

TEST(GeometryValidation, WlRatioThrowsOnInvalidGeometry) {
  EXPECT_THROW((Geometry{0.0, um(5.0), 1}.wl_ratio()), std::invalid_argument);
  EXPECT_THROW((Geometry{um(50.0), 0.0, 1}.wl_ratio()),
               std::invalid_argument);
  EXPECT_THROW((Geometry{um(50.0), -um(5.0), 1}.wl_ratio()),
               std::invalid_argument);
  EXPECT_THROW((Geometry{um(50.0), um(5.0), 0}.wl_ratio()),
               std::invalid_argument);
  const double nan = std::nan("");
  EXPECT_THROW((Geometry{nan, um(5.0), 1}.wl_ratio()), std::invalid_argument);
  EXPECT_EQ((Geometry{um(50.0), um(5.0), 2}.wl_ratio()), (50.0 / 5.0) * 2.0);
}

TEST(GeometryValidation, LoadDeviceRejectsInvalidGeometry) {
  CoreEvalBatch b;
  b.resize(1);
  EXPECT_THROW(b.load_device(0, tech5().nmos, {0.0, um(5.0), 1}),
               std::invalid_argument);
  EXPECT_THROW(b.load_device(0, tech5().nmos, {um(50.0), um(5.0), -2}),
               std::invalid_argument);
}

TEST(GeometryValidation, ValidateGeometryMessageNamesField) {
  try {
    validate_geometry({um(50.0), 0.0, 1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("l must be"), std::string::npos);
  }
}

// ---- Finite-difference derivative consistency (scalar reference) --------

// Central difference of the model current along one bias axis.
double fd_id(const MosParams& p, const Geometry& g, CoreBias bias,
             double CoreBias::* axis, double h) {
  CoreBias lo = bias, hi = bias;
  lo.*axis -= h;
  hi.*axis += h;
  return (evaluate_core(p, g, hi).id - evaluate_core(p, g, lo).id) /
         (2.0 * h);
}

void expect_derivatives_match_fd(const CoreBias& bias, double rel_tol) {
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  const double h = 1e-7;
  const CoreEval e = evaluate_core(p, g, bias);
  const double gm_fd = fd_id(p, g, bias, &CoreBias::vgs, h);
  const double gds_fd = fd_id(p, g, bias, &CoreBias::vds, h);
  const double gmb_fd = fd_id(p, g, bias, &CoreBias::vbs, h);
  EXPECT_NEAR(e.gm, gm_fd, rel_tol * std::abs(gm_fd) + 1e-12);
  EXPECT_NEAR(e.gds, gds_fd, rel_tol * std::abs(gds_fd) + 1e-12);
  EXPECT_NEAR(e.gmb, gmb_fd, rel_tol * std::abs(gmb_fd) + 1e-12);
}

TEST(ScalarDerivatives, MatchFiniteDifferenceInSaturationInterior) {
  const MosParams& p = tech5().nmos;
  expect_derivatives_match_fd({p.vt0 + 0.5, 2.0, -1.0}, 1e-5);
}

TEST(ScalarDerivatives, MatchFiniteDifferenceInTriodeInterior) {
  const MosParams& p = tech5().nmos;
  expect_derivatives_match_fd({p.vt0 + 0.8, 0.2, -0.5}, 1e-5);
}

TEST(ScalarDerivatives, ContinuousAtSaturationTriodeBoundary) {
  // At vds == vdsat the region flips, but keeping the CLM factor in triode
  // makes id, gm, and gds all continuous — so the central difference
  // (which straddles the boundary) still matches the analytic values, just
  // with the one-sided curvature jump in the error term.
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  const CoreBias bias{p.vt0 + 0.5, 0.5, 0.0};  // vds exactly vdsat
  const CoreEval e = evaluate_core(p, g, bias);
  ASSERT_EQ(e.vdsat, bias.vds);
  ASSERT_EQ(e.region, Region::kSaturation);  // boundary belongs to sat
  expect_derivatives_match_fd(bias, 1e-3);
}

TEST(ScalarDerivatives, GmVanishesAtThresholdBoundary) {
  // At vgs == vth the device is cutoff with id = gm = 0; the square law
  // approaching from above gives dId/dVgs -> 0, so the FD slope must go
  // to zero with h — the derivative is consistent, not clamped.
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  const CoreBias bias{p.vt0, 1.0, 0.0};
  const CoreEval e = evaluate_core(p, g, bias);
  ASSERT_EQ(e.region, Region::kCutoff);
  ASSERT_EQ(e.vov, 0.0);
  const double h = 1e-7;
  const double beta = p.kp * g.wl_ratio();
  const double gm_fd = fd_id(p, g, bias, &CoreBias::vgs, h);
  EXPECT_NEAR(gm_fd, 0.0, beta * h);  // O(h) from the one-sided quadratic
  EXPECT_EQ(e.gm, 0.0);
}

}  // namespace
}  // namespace oasys::mos

namespace oasys::sim {
namespace {

using ckt::Circuit;
using ckt::Waveform;
using util::um;

const tech::Technology& tech5() {
  static const tech::Technology t = tech::five_micron();
  return t;
}

// NMOS + PMOS + a floating body connection: exercises the sign flip, the
// D/S swap, and ground (-1) node indices.  Without its MOSFETs the circuit
// keeps every node, so both variants share one MNA layout.
Circuit two_stage_circuit(bool with_mosfets = true) {
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto mid = c.node("mid");
  const auto out = c.node("out");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(tech5().vdd));
  c.add_vsource("VIN", in, ckt::kGround, Waveform::ac(1.2, 1.0));
  c.add_resistor("R1", vdd, mid, 50e3);
  c.add_resistor("R2", out, ckt::kGround, 100e3);
  c.add_capacitor("CL", out, ckt::kGround, 10e-12);
  if (with_mosfets) {
    c.add_mosfet("M1", mid, in, ckt::kGround, ckt::kGround,
                 mos::MosType::kNmos, um(50.0), um(5.0));
    c.add_mosfet("M2", out, mid, vdd, vdd, mos::MosType::kPmos, um(100.0),
                 um(5.0), 2);
  }
  return c;
}

struct EvalOut {
  num::RealMatrix jac;
  std::vector<double> f;
  std::vector<DeviceOp> ops;
};

EvalOut run_eval(const NonlinearSystem& sys, const std::vector<double>& x,
                 DeviceTable* table) {
  EvalOut out;
  sys.eval(x, NonlinearSystem::EvalOptions{}, &out.jac, &out.f, &out.ops,
           table);
  return out;
}

// Scalar reference for NonlinearSystem::eval.  The linear stamps come from
// `linear` (the same circuit without MOSFETs), so every entry starts from
// the same partial sum; then each device of `c` goes alone through
// mos::evaluate_terminal and its ten stamps are added in device order.
EvalOut reference_eval(const Circuit& c, const NonlinearSystem& linear,
                       const std::vector<double>& x) {
  EvalOut ref = run_eval(linear, x, nullptr);
  const MnaLayout& layout = linear.layout();
  const tech::Technology& t = tech5();
  auto add_f = [&](int row, double v) {
    if (row >= 0) ref.f[static_cast<std::size_t>(row)] += v;
  };
  auto add_j = [&](int row, int col, double v) {
    if (row >= 0 && col >= 0) {
      ref.jac(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) +=
          v;
    }
  };
  for (const ckt::Mosfet& m : c.mosfets()) {
    tech::MosParams p = m.type == mos::MosType::kNmos ? t.nmos : t.pmos;
    p.vt0 += m.dvt;
    const double vd = layout.voltage(x, m.d);
    const double vg = layout.voltage(x, m.g);
    const double vs = layout.voltage(x, m.s);
    const double vb = layout.voltage(x, m.b);
    const mos::TerminalEval e =
        mos::evaluate_terminal(p, m.type, m.geom, vg, vd, vs, vb);
    const int id = layout.node_index(m.d);
    const int ig = layout.node_index(m.g);
    const int is = layout.node_index(m.s);
    const int ib = layout.node_index(m.b);
    add_f(id, e.id_ds);
    add_f(is, -e.id_ds);
    add_j(id, ig, e.di_dvg);
    add_j(id, id, e.di_dvd);
    add_j(id, is, e.di_dvs);
    add_j(id, ib, e.di_dvb);
    add_j(is, ig, -e.di_dvg);
    add_j(is, id, -e.di_dvd);
    add_j(is, is, -e.di_dvs);
    add_j(is, ib, -e.di_dvb);

    DeviceOp op;
    const double sign = m.type == mos::MosType::kNmos ? 1.0 : -1.0;
    op.region = e.region;
    op.vgs = sign * (vg - vs);
    op.vds = sign * (vd - vs);
    op.vbs = sign * (vb - vs);
    op.id = std::abs(e.id_ds);
    op.vth = e.vth;
    op.vov = e.vov;
    op.vdsat = e.vdsat;
    op.gm = e.gm;
    op.gds = e.gds;
    op.gmb = e.gmb;
    op.id_ds = e.id_ds;
    op.di_dvg = e.di_dvg;
    op.di_dvd = e.di_dvd;
    op.di_dvs = e.di_dvs;
    op.di_dvb = e.di_dvb;
    fill_device_caps(t, m, vd, vg, vs, vb, &op);
    ref.ops.push_back(op);
  }
  return ref;
}

void expect_same(const EvalOut& a, const EvalOut& b) {
  EXPECT_EQ(a.f, b.f);
  ASSERT_EQ(a.jac.rows(), b.jac.rows());
  const std::size_t n = a.jac.rows();
  for (std::size_t k = 0; k < n * n; ++k) {
    EXPECT_EQ(a.jac.data()[k], b.jac.data()[k]) << "jacobian entry " << k;
  }
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const DeviceOp& p = a.ops[i];
    const DeviceOp& q = b.ops[i];
    EXPECT_EQ(p.region, q.region) << "device " << i;
    EXPECT_EQ(p.vgs, q.vgs);
    EXPECT_EQ(p.vds, q.vds);
    EXPECT_EQ(p.vbs, q.vbs);
    EXPECT_EQ(p.id, q.id);
    EXPECT_EQ(p.vth, q.vth);
    EXPECT_EQ(p.vov, q.vov);
    EXPECT_EQ(p.vdsat, q.vdsat);
    EXPECT_EQ(p.gm, q.gm);
    EXPECT_EQ(p.gds, q.gds);
    EXPECT_EQ(p.gmb, q.gmb);
    EXPECT_EQ(p.id_ds, q.id_ds);
    EXPECT_EQ(p.di_dvg, q.di_dvg);
    EXPECT_EQ(p.di_dvd, q.di_dvd);
    EXPECT_EQ(p.di_dvs, q.di_dvs);
    EXPECT_EQ(p.di_dvb, q.di_dvb);
    EXPECT_EQ(p.cgs, q.cgs);
    EXPECT_EQ(p.cgd, q.cgd);
    EXPECT_EQ(p.cgb, q.cgb);
    EXPECT_EQ(p.cdb, q.cdb);
    EXPECT_EQ(p.csb, q.csb);
  }
}

// Checks eval through a built table against the scalar reference.
void expect_matches_reference(const Circuit& c, const std::vector<double>& x) {
  const NonlinearSystem sys(c, tech5());
  const Circuit linear_circuit = two_stage_circuit(false);
  const NonlinearSystem linear(linear_circuit, tech5());
  ASSERT_EQ(linear.layout().size(), sys.layout().size());
  DeviceTable table;
  sys.build_device_table(&table);
  expect_same(run_eval(sys, x, &table), reference_eval(c, linear, x));
}

TEST(BatchMna, EvalMatchesScalarBitwise) {
  const Circuit c = two_stage_circuit();
  const std::size_t n = MnaLayout(c).size();

  // At the converged operating point...
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  expect_matches_reference(c, op.solution);

  // ...at a flat start (vds == 0 everywhere)...
  expect_matches_reference(c, std::vector<double>(n, 0.0));

  // ...and at a deliberately scrambled bias that reverses vds on both
  // devices, driving the D/S-swap unwinding.
  std::vector<double> scrambled(n, 0.0);
  for (std::size_t i = 0; i < scrambled.size(); ++i) {
    scrambled[i] = (i % 2 == 0) ? 4.0 : -1.5;
  }
  expect_matches_reference(c, scrambled);

  // ...and at seeded random biases across every region and both D/S
  // orientations; the three above alone miss a re-associated stamp sum.
  util::RngStream rng(0xb1a5u, 0);
  for (int i = 0; i < 64; ++i) {
    std::vector<double> x(n);
    for (double& v : x) v = 10.0 * rng.next_double() - 5.0;
    expect_matches_reference(c, x);
  }
}

TEST(BatchMna, MismatchShiftFlowsThroughTable) {
  Circuit c = two_stage_circuit();
  c.set_mosfet_dvt("M1", 4e-3);
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  expect_matches_reference(c, op.solution);
}

TEST(BatchMna, BatchWithoutTableThrows) {
  // A null table is built for the one call, bit-identical to a built one.
  const Circuit c = two_stage_circuit();
  NonlinearSystem sys(c, tech5());
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  DeviceTable table;
  sys.build_device_table(&table);
  expect_same(run_eval(sys, op.solution, nullptr),
              run_eval(sys, op.solution, &table));

  // A table built for a different device count is rejected.
  const std::size_t n = sys.layout().size();
  std::vector<double> x(n, 0.0), f(n);
  DeviceTable stale;
  stale.batch.resize(5);
  EXPECT_THROW(sys.eval(x, NonlinearSystem::EvalOptions{}, nullptr, &f,
                        nullptr, &stale),
               std::logic_error);
}

TEST(BatchMna, DeviceEvalCountersCountBatchesOnly) {
  // One batch per eval call, with or without a caller-built table.
  const Circuit c = two_stage_circuit();
  NonlinearSystem sys(c, tech5());
  DeviceTable table;
  sys.build_device_table(&table);
  const std::size_t n = sys.layout().size();
  std::vector<double> x(n, 1.0), f(n);

  auto& batches = obs::Registry::global().counter("sim.device_eval.batches");
  auto& devices = obs::Registry::global().counter("sim.device_eval.devices");
  const std::uint64_t b0 = batches.value();
  const std::uint64_t d0 = devices.value();

  const NonlinearSystem::EvalOptions opts;
  sys.eval(x, opts, nullptr, &f, nullptr, &table);
  EXPECT_EQ(batches.value(), b0 + 1);
  EXPECT_EQ(devices.value(), d0 + table.size());
  sys.eval(x, opts, nullptr, &f, nullptr, &table);
  sys.eval(x, opts, nullptr, &f);
  EXPECT_EQ(batches.value(), b0 + 3);
  EXPECT_EQ(devices.value(), d0 + 3 * table.size());
}

}  // namespace
}  // namespace oasys::sim
