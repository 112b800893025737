// Offset-null primitive (synth::measure_offset).
//
// The null is the differential input that puts the open-loop output at
// mid-supply.  One bordered Newton solve finds it; the bracket/bisect
// search survives only as the fallback.  Pinned here:
//  * the returned operating point really sits at the null — |v(out) - mid|
//    within 1 uV for the paper cases and for every sample behind the
//    yield goldens (the bisection stopped up to ~1 mV off mid-supply);
//  * the border agrees with a bisection of the same bench;
//  * a bench whose output ignores vid goes through the fallback and
//    reports the no-bracket error;
//  * the sim.offset.* counters, and the bench left driven at the null.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/rootfind.h"
#include "obs/metrics.h"
#include "spice/dc.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/rng.h"

namespace oasys {
namespace {

const tech::Technology& tech5() {
  static const tech::Technology t = tech::five_micron();
  return t;
}

const synth::OpAmpDesign& paper_design(std::size_t i) {
  static const std::vector<synth::SynthesisResult> results = [] {
    std::vector<synth::SynthesisResult> out;
    for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
      out.push_back(synth::synthesize_opamp(tech5(), spec, {}));
    }
    return out;
  }();
  return *results.at(i).best();
}

double out_error(const synth::OpenLoopBench& bench,
                 const synth::OffsetNull& null, const tech::Technology& t) {
  const sim::MnaLayout layout(bench.circuit);
  return null.op.voltage(layout, bench.nodes.out) - t.mid_supply();
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(OffsetNull, PaperCasesCentreTheOutputWithoutFallback) {
  const std::uint64_t nulls = counter("sim.offset.nulls");
  const std::uint64_t fallbacks = counter("sim.offset.fallbacks");
  for (std::size_t i = 0; i < 3; ++i) {
    synth::OpenLoopBench bench(paper_design(i), tech5());
    const synth::OffsetNull null = synth::measure_offset(&bench, tech5());
    ASSERT_TRUE(null.ok) << "case " << i << ": " << null.error;
    ASSERT_TRUE(null.op.converged);
    EXPECT_LE(std::abs(out_error(bench, null, tech5())), 1e-6)
        << "case " << i;
    // The bench is left driven at the null.
    EXPECT_EQ(bench.circuit.vsource(bench.vip_idx).wave.dc_value(),
              bench.vcm + 0.5 * null.vid);
    EXPECT_EQ(bench.circuit.vsource(bench.vin_idx).wave.dc_value(),
              bench.vcm - 0.5 * null.vid);
  }
  EXPECT_EQ(counter("sim.offset.nulls") - nulls, 3u);
  EXPECT_EQ(counter("sim.offset.fallbacks") - fallbacks, 0u);
}

// The 16 samples behind each of tests/golden/cmos5_case{A,B}_yield.json:
// seed 1, the per-device area-law draws analyze_yield makes, warm-started
// from the nominal operating point.
TEST(OffsetNull, YieldGoldenSamplesCentreTheOutput) {
  const tech::Technology& t = tech5();
  for (std::size_t i = 0; i < 2; ++i) {
    const synth::OpenLoopBench base(paper_design(i), t);
    const sim::OpResult nominal = sim::dc_operating_point(base.circuit, t);
    ASSERT_TRUE(nominal.converged);
    for (std::uint64_t sample = 0; sample < 16; ++sample) {
      synth::OpenLoopBench bench = base;
      util::RngStream rng(1, sample);
      for (const ckt::Mosfet& m : base.circuit.mosfets()) {
        const tech::MosParams& p =
            m.type == mos::MosType::kNmos ? t.nmos : t.pmos;
        bench.circuit.set_mosfet_dvt(
            m.name, p.sigma_vt(m.geom.w * m.geom.m, m.geom.l) *
                        rng.next_gauss());
      }
      const synth::OffsetNull null =
          synth::measure_offset(&bench, t, nominal.solution);
      ASSERT_TRUE(null.ok) << "case " << i << " sample " << sample;
      EXPECT_LE(std::abs(out_error(bench, null, t)), 1e-6)
          << "case " << i << " sample " << sample;
    }
  }
}

TEST(OffsetNull, AgreesWithBisectionOfTheSameBench) {
  const tech::Technology& t = tech5();
  synth::OpenLoopBench bench(paper_design(1), t);
  const synth::OffsetNull null = synth::measure_offset(&bench, t);
  ASSERT_TRUE(null.ok) << null.error;

  const sim::MnaLayout layout(bench.circuit);
  auto f = [&](double vid) {
    bench.set_vid(vid);
    const sim::OpResult op = sim::dc_operating_point(bench.circuit, t);
    return op.voltage(layout, bench.nodes.out) - t.mid_supply();
  };
  num::RootOptions ro;
  ro.xtol = 1e-10;
  const auto vid = num::bisect(f, null.vid - 1e-4, null.vid + 1e-4, ro);
  ASSERT_TRUE(vid.has_value());
  EXPECT_NEAR(null.vid, *vid, 1e-9);
}

// A bench whose output node is a divider off the supply: the inputs load
// their own resistors only, so dv(out)/dvid is exactly zero.  The
// bordered solve must refuse it (b_out == 0) and the fallback must fail
// to bracket a null, with the error the bisection search always gave.
TEST(OffsetNull, OutputThatIgnoresVidFallsBackAndFailsToBracket) {
  const tech::Technology& t = tech5();
  synth::OpenLoopBench bench;
  ckt::Circuit& c = bench.circuit;
  bench.nodes.vdd = c.node("vdd");
  bench.nodes.inp = c.node("inp");
  bench.nodes.inn = c.node("inn");
  bench.nodes.out = c.node("out");
  bench.vcm = t.mid_supply();
  c.add_vsource("VDD", bench.nodes.vdd, ckt::kGround,
                ckt::Waveform::dc(t.vdd));
  c.add_vsource("VIP", bench.nodes.inp, ckt::kGround,
                ckt::Waveform::dc(bench.vcm));
  c.add_vsource("VIN", bench.nodes.inn, ckt::kGround,
                ckt::Waveform::dc(bench.vcm));
  c.add_resistor("RP", bench.nodes.inp, ckt::kGround, 10e3);
  c.add_resistor("RN", bench.nodes.inn, ckt::kGround, 10e3);
  c.add_resistor("RT", bench.nodes.vdd, bench.nodes.out, 10e3);
  c.add_resistor("RB", bench.nodes.out, ckt::kGround, 30e3);
  bench.vdd_idx = *c.find_vsource("VDD");
  bench.vip_idx = *c.find_vsource("VIP");
  bench.vin_idx = *c.find_vsource("VIN");

  const std::uint64_t nulls = counter("sim.offset.nulls");
  const std::uint64_t fallbacks = counter("sim.offset.fallbacks");
  const synth::OffsetNull null = synth::measure_offset(&bench, t);
  EXPECT_FALSE(null.ok);
  EXPECT_EQ(null.error, "could not bracket the output null (offset search)");
  EXPECT_EQ(counter("sim.offset.nulls") - nulls, 1u);
  EXPECT_EQ(counter("sim.offset.fallbacks") - fallbacks, 1u);
}

}  // namespace
}  // namespace oasys
