// Fully differential OTA (paper Sec. 5, "fully differential styles"):
// designer invariants, the common-mode feedback loop's correctness and
// stability, and simulator agreement on the differential axes.
#include <gtest/gtest.h>

#include <complex>

#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/measure.h"
#include "synth/fd_ota.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::synth {
namespace {

using tech::Technology;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

core::OpAmpSpec fd_spec() {
  core::OpAmpSpec s;
  s.name = "fd";
  s.gain_min_db = 45.0;
  s.gbw_min = util::mhz(2.0);
  s.slew_min = util::v_per_us(2.0);
  s.cload = util::pf(5.0);
  s.swing_pos = 1.0;
  s.swing_neg = 1.0;
  s.icmr_lo = -1.0;
  s.icmr_hi = 1.0;
  return s;
}

TEST(FdOta, FeasibleWithCmfbNetwork) {
  const FdOtaDesign d = design_fd_ota(tech5(), fd_spec());
  ASSERT_TRUE(d.feasible) << d.trace.to_string();
  // The CMFB machinery is part of the design.
  for (const char* role :
       {"M1", "M2", "ML3", "ML4", "M5", "SF1", "SF2", "SFB1", "SFB2",
        "MC1", "MC2", "MC3", "MC4", "MC5", "MB1"}) {
    EXPECT_NE(d.device(role), nullptr) << role;
  }
  EXPECT_GT(d.rcm, 0.0);
  EXPECT_GT(d.i_cmfb, 0.0);
  // Fully differential: no systematic offset by symmetry.
  EXPECT_DOUBLE_EQ(d.predicted.offset, 0.0);
  // Symmetric swing bound (CMFB pins the common mode).
  EXPECT_DOUBLE_EQ(d.predicted.swing_pos, d.predicted.swing_neg);
}

TEST(FdOta, NetlistHasNoDanglingNodes) {
  const FdOtaDesign d = design_fd_ota(tech5(), fd_spec());
  ASSERT_TRUE(d.feasible);
  ckt::Circuit c;
  const BuiltFdOta nodes = build_fd_ota(d, tech5(), c);
  c.add_vsource("VDD", nodes.vdd, ckt::kGround,
                ckt::Waveform::dc(tech5().vdd));
  c.add_vsource("VSS", nodes.vss, ckt::kGround,
                ckt::Waveform::dc(tech5().vss));
  c.add_vsource("VIP", nodes.inp, ckt::kGround, ckt::Waveform::dc(0.0));
  c.add_vsource("VIN", nodes.inn, ckt::kGround, ckt::Waveform::dc(0.0));
  c.add_capacitor("CLP", nodes.outp, ckt::kGround, 5e-12);
  c.add_capacitor("CLM", nodes.outm, ckt::kGround, 5e-12);
  EXPECT_TRUE(c.dangling_nodes().empty());
}

TEST(FdOta, SimulatorAgreesOnDifferentialAxes) {
  const FdOtaDesign d = design_fd_ota(tech5(), fd_spec());
  ASSERT_TRUE(d.feasible);
  const MeasuredFdOta m = measure_fd_ota(d, tech5());
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_NEAR(m.gain_db, d.predicted.gain_db, 5.0);
  EXPECT_NEAR(m.gbw / d.predicted.gbw, 1.0, 0.35);
  EXPECT_GE(m.swing_pos, d.predicted.swing_pos * 0.9);
  EXPECT_GE(m.swing_neg, d.predicted.swing_neg * 0.9);
}

TEST(FdOta, DifferentialWalkMatchesTheFull101PointSweep) {
  const FdOtaDesign d = design_fd_ota(tech5(), fd_spec());
  ASSERT_TRUE(d.feasible);
  const MeasuredFdOta m = measure_fd_ota(d, tech5());
  ASSERT_TRUE(m.ok) << m.error;

  // The full sweep the walk replaces: v(outp) - v(outm) at all 101 points.
  const FdOtaBench bench = fd_ota_bench(d, tech5());
  ASSERT_EQ(bench.freqs.size(), 101u);
  const sim::OpResult op = sim::dc_operating_point(bench.circuit, tech5());
  ASSERT_TRUE(op.converged);
  const sim::AcResult ac =
      sim::ac_analysis(bench.circuit, tech5(), op, bench.freqs);
  ASSERT_TRUE(ac.ok) << ac.error;
  const sim::MnaLayout layout(bench.circuit);
  sim::BodeSeries bode;
  for (std::size_t i = 0; i < bench.freqs.size(); ++i) {
    append_bode_point(&bode, bench.freqs[i],
                      ac.voltage(layout, i, bench.nodes.outp) -
                          ac.voltage(layout, i, bench.nodes.outm));
  }
  const sim::LoopMetrics full = sim::loop_metrics(bode);
  ASSERT_TRUE(full.unity_gain_freq.has_value());
  ASSERT_TRUE(full.phase_margin_deg.has_value());
  EXPECT_EQ(m.gain_db, full.dc_gain_db);
  EXPECT_EQ(m.gbw, *full.unity_gain_freq);
  EXPECT_EQ(m.pm_deg, *full.phase_margin_deg);
}

TEST(FdOta, CommonModeLoopRegulatesAndSettles) {
  const FdOtaDesign d = design_fd_ota(tech5(), fd_spec());
  ASSERT_TRUE(d.feasible);
  const MeasuredFdOta m = measure_fd_ota(d, tech5());
  ASSERT_TRUE(m.ok) << m.error;
  // Output common mode held near mid-supply by the CMFB loop.
  EXPECT_LT(m.cm_error, 0.20);
  // A common-mode input step must not destabilize the loop.
  EXPECT_TRUE(m.cm_loop_settles);
}

TEST(FdOta, SymmetryGivesHugeCmrr) {
  const FdOtaDesign d = design_fd_ota(tech5(), fd_spec());
  ASSERT_TRUE(d.feasible);
  const MeasuredFdOta m = measure_fd_ota(d, tech5());
  ASSERT_TRUE(m.ok);
  // With perfectly matched halves the differential output rejects CM
  // drive almost completely (mismatch is what limits real CMRR).
  EXPECT_GT(m.cmrr_db, 100.0);
}

TEST(FdOta, SwingBudgetEnforced) {
  core::OpAmpSpec s = fd_spec();
  s.swing_pos = 4.95;  // beyond the single-Vdsat load headroom
  EXPECT_FALSE(design_fd_ota(tech5(), s).feasible);
  s = fd_spec();
  s.swing_neg = 4.0;  // below the pair's floor
  EXPECT_FALSE(design_fd_ota(tech5(), s).feasible);
}

TEST(FdOta, GainCeilingHonest) {
  core::OpAmpSpec s = fd_spec();
  s.gain_min_db = 80.0;  // single simple stage cannot reach this
  EXPECT_FALSE(design_fd_ota(tech5(), s).feasible);
}

class FdSweep : public ::testing::TestWithParam<double> {};

TEST_P(FdSweep, SlewScalesTailCurrent) {
  core::OpAmpSpec s = fd_spec();
  s.slew_min = util::v_per_us(GetParam());
  const FdOtaDesign d = design_fd_ota(tech5(), s);
  ASSERT_TRUE(d.feasible) << d.trace.to_string();
  // Per-side slew = itail / (2 CL), with the design margin on top.
  EXPECT_GE(d.itail, 2.0 * s.slew_min * s.cload * 0.99);
  EXPECT_GE(d.predicted.slew, s.slew_min);
}

INSTANTIATE_TEST_SUITE_P(Slews, FdSweep,
                         ::testing::Values(1.0, 2.0, 5.0, 10.0));

}  // namespace
}  // namespace oasys::synth
