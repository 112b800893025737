// Time-step convergence of the verification transients.  Every
// measurement that runs the default (adaptive) transient must agree with a
// fixed-step run of the same fixture at a 64th of the fixture's own step,
// which is converged: a dt/16 run agrees with it to 0.05%.  Each test
// builds its fixture with the helper the measurement itself calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "obs/metrics.h"
#include "spice/sim_options.h"
#include "synth/comparator.h"
#include "synth/fd_ota.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::synth {
namespace {

// The fixture's own window at a 64th of its initial step, fixed-step.
sim::TranOptions fine_fixed(sim::TranOptions tran) {
  tran.mode = sim::TranMode::kFixed;
  tran.dt /= 64.0;
  return tran;
}

std::uint64_t counter(const char* name) {
  const obs::MetricsSnapshot s = obs::Registry::global().snapshot();
  const obs::MetricEntry* e = s.find(name);
  return e != nullptr ? e->counter : 0u;
}

struct PaperCase {
  const char* tech;
  char spec;
};

// Names the case in listings (gtest would print the pointer's bytes).
void PrintTo(const PaperCase& c, std::ostream* os) {
  *os << c.tech << " case " << c.spec;
}

tech::Technology technology(const PaperCase& c) {
  return std::string(c.tech) == "five_micron" ? tech::five_micron()
                                              : tech::three_micron();
}

core::OpAmpSpec spec_of(const PaperCase& c) {
  switch (c.spec) {
    case 'A':
      return spec_case_a();
    case 'B':
      return spec_case_b();
    default:
      return spec_case_c();
  }
}

class PaperCaseSlew : public ::testing::TestWithParam<PaperCase> {};

TEST_P(PaperCaseSlew, MeasuredSlewMatchesFineFixedStep) {
  const tech::Technology t = technology(GetParam());
  const SynthesisResult r = synthesize_opamp(t, spec_of(GetParam()));
  ASSERT_TRUE(r.success());
  const MeasuredOpAmp m = measure_opamp(*r.best(), t);
  ASSERT_TRUE(m.ok) << m.error;
  ASSERT_GT(m.perf.slew, 0.0);

  const SlewBench sb = slew_bench(*r.best(), t, m.perf.gbw);
  const std::optional<double> ref = follower_slew(sb, t, fine_fixed(sb.tran));
  ASSERT_TRUE(ref.has_value());
  EXPECT_NEAR(m.perf.slew / *ref, 1.0, 0.01)
      << "measured " << m.perf.slew << " V/s, dt/64 fixed " << *ref;
}

TEST_P(PaperCaseSlew, ContractionStopLandsOnTheTightVntolSlew) {
  // Each step's Newton stops on its contraction rate; at the default
  // vntol that must cost nothing measurable against a run whose vntol
  // leaves no doubt about convergence.
  const tech::Technology t = technology(GetParam());
  const SynthesisResult r = synthesize_opamp(t, spec_of(GetParam()));
  ASSERT_TRUE(r.success());
  const SlewBench sb = slew_bench(*r.best(), t, 0.0);
  sim::TranOptions tight = sb.tran;
  tight.vntol = 1e-10;
  const std::optional<double> slew = follower_slew(sb, t, sb.tran);
  const std::optional<double> ref = follower_slew(sb, t, tight);
  ASSERT_TRUE(slew.has_value());
  ASSERT_TRUE(ref.has_value());
  EXPECT_NEAR(*slew / *ref, 1.0, 1e-6)
      << "default vntol " << *slew << " V/s, vntol 1e-10 " << *ref;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperCaseSlew,
    ::testing::Values(PaperCase{"five_micron", 'A'},
                      PaperCase{"five_micron", 'B'},
                      PaperCase{"five_micron", 'C'},
                      PaperCase{"three_micron", 'A'},
                      PaperCase{"three_micron", 'B'},
                      PaperCase{"three_micron", 'C'}),
    [](const ::testing::TestParamInfo<PaperCase>& info) {
      return std::string(info.param.tech) + "_case" + info.param.spec;
    });

TEST(TranConvergence, FollowerStepRejectsAndRecovers) {
  // The reject path of the adaptive engine: case A's follower step (a
  // slewing output whose curvature outruns the growing step) rejects
  // steps, shrinks, retries and still finishes the measurement.
  const tech::Technology t = tech::five_micron();
  const SynthesisResult r = synthesize_opamp(t, spec_case_a());
  ASSERT_TRUE(r.success());
  ASSERT_EQ(sim::resolve_tran_mode(sim::TranMode::kDefault),
            sim::TranMode::kAdaptive);

  const std::uint64_t rejects = counter("tran.adaptive.rejects");
  const std::uint64_t steps = counter("tran.adaptive.steps");
  const MeasuredOpAmp m = measure_opamp(*r.best(), t);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GT(m.perf.slew, 0.0);
  EXPECT_GT(counter("tran.adaptive.rejects"), rejects)
      << "the follower step never forced a step rejection";
  EXPECT_GT(counter("tran.adaptive.steps"), steps);
}

TEST(TranConvergence, CaseCNewtonStopsOnItsContractionRate) {
  // The contraction stop saves the iteration that only confirms
  // convergence: without it case C's verification transient takes 3.35
  // Newton iterations per accepted step (593 over 177).
  const tech::Technology t = tech::five_micron();
  const SynthesisResult r = synthesize_opamp(t, spec_case_c());
  ASSERT_TRUE(r.success());
  const std::uint64_t iterations = counter("sim.tran.newton_iterations");
  const std::uint64_t steps = counter("sim.tran.steps_accepted");
  const MeasuredOpAmp m = measure_opamp(*r.best(), t);
  ASSERT_TRUE(m.ok) << m.error;
  const double per_step =
      static_cast<double>(counter("sim.tran.newton_iterations") - iterations) /
      static_cast<double>(counter("sim.tran.steps_accepted") - steps);
  EXPECT_LE(per_step, 2.6);
  EXPECT_GE(per_step, 1.0);
}

TEST(TranConvergence, ComparatorDelaysMatchFineFixedStep) {
  const tech::Technology t = tech::five_micron();
  ComparatorSpec spec;
  spec.name = "example";
  spec.resolution = util::mv(10.0);
  spec.tprop_max = util::us(2.0);
  spec.cload = util::pf(2.0);
  spec.out_high = 1.5;
  spec.out_low = -0.5;
  spec.icmr_lo = -1.0;
  spec.icmr_hi = 0.5;
  const ComparatorDesign d = design_comparator(t, spec);
  ASSERT_TRUE(d.feasible);
  const MeasuredComparator m = measure_comparator(d, t);
  ASSERT_TRUE(m.ok) << m.error;

  MeasureOptions mo;
  mo.measure_slew = false;
  mo.measure_icmr = false;
  const ComparatorBench b =
      comparator_bench(d, t, measure_opamp(d.amp, t, mo).offset_applied);
  MeasuredComparator ref;
  ASSERT_TRUE(comparator_step_response(b, t, fine_fixed(b.tran), &ref))
      << ref.error;
  EXPECT_NEAR(m.delay_rising / ref.delay_rising, 1.0, 0.01);
  EXPECT_NEAR(m.delay_falling / ref.delay_falling, 1.0, 0.01);
  // The settled levels are absolute voltages: within half a millivolt.
  EXPECT_NEAR(m.out_high, ref.out_high, 5e-4);
  EXPECT_NEAR(m.out_low, ref.out_low, 5e-4);
}

TEST(TranConvergence, FdOtaCmStepMatchesFineFixedStep) {
  const tech::Technology t = tech::five_micron();
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
  const FdOtaDesign d = design_fd_ota(t, s);
  ASSERT_TRUE(d.feasible);
  const MeasuredFdOta m = measure_fd_ota(d, t);
  ASSERT_TRUE(m.ok) << m.error;

  const CmStepBench b = cm_step_bench(d, t, m.gbw);
  const std::optional<double> drift = cm_step_drift(b, t, b.tran);
  const std::optional<double> ref = cm_step_drift(b, t, fine_fixed(b.tran));
  ASSERT_TRUE(drift.has_value());
  ASSERT_TRUE(ref.has_value());
  // The loop settles back close to its start, so the drift itself is
  // near zero; it is pinned against the 0.2 V input step it answers.
  EXPECT_NEAR(*drift, *ref, 0.01 * 0.2);
  EXPECT_EQ(m.cm_loop_settles, *ref < 0.25);
}

}  // namespace
}  // namespace oasys::synth
