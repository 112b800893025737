#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <vector>

#include "numeric/interpolate.h"
#include "obs/metrics.h"
#include "spice/ac.h"
#include "spice/measure.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::sim {
namespace {

using ckt::Circuit;
using ckt::Waveform;
using tech::Technology;
using util::kTwoPi;
using util::um;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

TEST(Ac, RcLowpassPoleAndPhase) {
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("V1", in, ckt::kGround, Waveform::ac(0.0, 1.0));
  const double r = 1e3;
  const double cap = 1e-9;  // pole at 159 kHz
  c.add_resistor("R1", in, out, r);
  c.add_capacitor("C1", out, ckt::kGround, cap);
  const double fp = 1.0 / (kTwoPi * r * cap);

  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  const AcResult ac =
      ac_analysis(c, tech5(), op, {fp / 100.0, fp, fp * 100.0});
  ASSERT_TRUE(ac.ok) << ac.error;
  MnaLayout layout(c);
  // Far below the pole: unity gain, ~0 phase.
  EXPECT_NEAR(std::abs(ac.voltage(layout, 0, out)), 1.0, 1e-3);
  // At the pole: -3 dB and -45 degrees.
  const auto vp = ac.voltage(layout, 1, out);
  EXPECT_NEAR(util::db20(std::abs(vp)), -3.0103, 0.01);
  EXPECT_NEAR(util::deg(std::arg(vp)), -45.0, 0.1);
  // Two decades above: -40 dB.
  EXPECT_NEAR(util::db20(std::abs(ac.voltage(layout, 2, out))), -40.0, 0.1);
}

TEST(Ac, CommonSourceAmpGainMatchesSmallSignal) {
  const Technology& t = tech5();
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(5.0));
  // Bias the gate in saturation; AC ride on the gate.
  c.add_vsource("VIN", in, ckt::kGround, Waveform::ac(1.2, 1.0));
  c.add_mosfet("M1", out, in, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(50.0), um(5.0));
  const double rl = 50e3;
  c.add_resistor("RL", vdd, out, rl);

  const OpResult op = dc_operating_point(c, t);
  ASSERT_TRUE(op.converged);
  ASSERT_EQ(op.devices[0].region, mos::Region::kSaturation);
  const double gm = op.devices[0].gm;
  const double gds = op.devices[0].gds;
  const double expected_gain = gm * (rl / (1.0 + gds * rl));

  const AcResult ac = ac_analysis(c, t, op, {10.0});
  ASSERT_TRUE(ac.ok);
  MnaLayout layout(c);
  const auto v = ac.voltage(layout, 0, out);
  EXPECT_NEAR(std::abs(v), expected_gain, expected_gain * 1e-3);
  // Inverting stage: phase ~180.
  EXPECT_NEAR(std::abs(util::deg(std::arg(v))), 180.0, 0.5);
}

TEST(Ac, FailsWithoutConvergedOp) {
  Circuit c;
  c.add_resistor("R", c.node("a"), ckt::kGround, 1e3);
  OpResult bad;
  bad.converged = false;
  const AcResult ac = ac_analysis(c, tech5(), bad, {1.0});
  EXPECT_FALSE(ac.ok);
}

TEST(Ac, RejectsNonPositiveFrequency) {
  Circuit c;
  const auto n = c.node("n");
  c.add_vsource("V", n, ckt::kGround, Waveform::ac(0.0, 1.0));
  c.add_resistor("R", n, ckt::kGround, 1e3);
  const OpResult op = dc_operating_point(c, tech5());
  const AcResult ac = ac_analysis(c, tech5(), op, {0.0});
  EXPECT_FALSE(ac.ok);
}

// ---- measurement layer --------------------------------------------------------

TEST(Measure, BodeAndMetricsOfRcCascade) {
  // Two RC poles: DC gain 0 dB, f1 = 159 kHz, f2 = 1.59 MHz (buffered by
  // ideal separation through a big impedance ratio).
  Circuit c;
  const auto in = c.node("in");
  const auto n1 = c.node("n1");
  const auto n2 = c.node("n2");
  c.add_vsource("V1", in, ckt::kGround, Waveform::ac(0.0, 1.0));
  c.add_resistor("R1", in, n1, 1e3);
  c.add_capacitor("C1", n1, ckt::kGround, 1e-9);
  c.add_resistor("R2", n1, n2, 1e6);  // light loading of the first section
  c.add_capacitor("C2", n2, ckt::kGround, 1e-13);

  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  const auto freqs = num::logspace(1e3, 1e8, 101);
  const AcResult ac = ac_analysis(c, tech5(), op, freqs);
  ASSERT_TRUE(ac.ok);
  MnaLayout layout(c);
  const BodeSeries bode = bode_of_node(ac, layout, n2);
  const LoopMetrics m = loop_metrics(bode);
  EXPECT_NEAR(m.dc_gain_db, 0.0, 0.1);
  ASSERT_TRUE(m.bandwidth_3db.has_value());
  EXPECT_NEAR(*m.bandwidth_3db, 159e3, 8e3);
  // Phase is unwrapped: far above both poles it approaches -180.
  EXPECT_LT(bode.phase_deg.back(), -150.0);
}

TEST(Measure, IntegratorUnityGainAndPhaseMargin) {
  // R-C integrator from a 0 dB reference at f = 1/(2 pi R C): unity-gain
  // crossing with 90 degrees of margin.
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("V1", in, ckt::kGround, Waveform::ac(0.0, 1000.0));
  // Gain 1000 at DC rolled off by one pole at 100 Hz -> ugf ~ 100 kHz.
  c.add_resistor("R1", in, out, 1.59e3);
  c.add_capacitor("C1", out, ckt::kGround, 1e-6);

  const OpResult op = dc_operating_point(c, tech5());
  const auto freqs = num::logspace(1.0, 1e7, 141);
  const AcResult ac = ac_analysis(c, tech5(), op, freqs);
  ASSERT_TRUE(ac.ok);
  MnaLayout layout(c);
  const LoopMetrics m = loop_metrics(bode_of_node(ac, layout, out));
  ASSERT_TRUE(m.unity_gain_freq.has_value());
  EXPECT_NEAR(*m.unity_gain_freq, 1000.0 / (util::kTwoPi * 1.59e3 * 1e-6),
              *m.unity_gain_freq * 0.05);
  ASSERT_TRUE(m.phase_margin_deg.has_value());
  EXPECT_NEAR(*m.phase_margin_deg, 90.0, 2.0);
}

TEST(Measure, InvertingSeedSignCannotFlipPhaseSeries) {
  // Inverting two-pole response: the DC phase sits at the ±180° branch
  // point, and rounding in the first sample's imaginary part decides which
  // principal value comes back.  Seeding the unwrap from the raw value
  // used to shift the whole series by 360° between the two rounding
  // outcomes; the seed must now be canonical (near +180°) either way.
  Circuit c;
  const auto out = c.node("out");
  c.add_resistor("R1", out, ckt::kGround, 1.0);
  c.add_vsource("VREF", out, ckt::kGround, Waveform::dc(0.0));
  const MnaLayout layout(c);
  const int out_idx = layout.node_index(out);
  ASSERT_GE(out_idx, 0);

  const std::vector<double> freqs = num::logspace(1.0, 1e6, 61);
  auto two_pole = [&](std::complex<double> first_sample) {
    AcResult ac;
    ac.ok = true;
    ac.freqs = freqs;
    for (const double f : freqs) {
      const std::complex<double> h =
          -100.0 / ((std::complex<double>(1.0, f / 1e2)) *
                    (std::complex<double>(1.0, f / 1e5)));
      std::vector<std::complex<double>> sol(layout.size());
      sol[static_cast<std::size_t>(out_idx)] = h;
      ac.solutions.push_back(std::move(sol));
    }
    ac.solutions[0][static_cast<std::size_t>(out_idx)] = first_sample;
    return ac;
  };

  // Same magnitude, imaginary part rounded to opposite signs: principal
  // values +179.4° vs -179.4°.
  const AcResult plus = two_pole({-100.0, 1.0});
  const AcResult minus = two_pole({-100.0, -1.0});
  const BodeSeries bp = bode_of_node(plus, layout, out);
  const BodeSeries bm = bode_of_node(minus, layout, out);

  // Both series seed near +180° (fold into the DC reference) ...
  EXPECT_NEAR(bp.phase_deg.front(), 180.0, 1.0);
  EXPECT_NEAR(bm.phase_deg.front(), 180.0, 1.0);
  // ... and track each other everywhere, instead of differing by 360°.
  ASSERT_EQ(bp.phase_deg.size(), bm.phase_deg.size());
  for (std::size_t i = 0; i < bp.phase_deg.size(); ++i) {
    EXPECT_NEAR(bp.phase_deg[i], bm.phase_deg[i], 1.2) << "at index " << i;
  }
  // Far above both poles the accumulated lag approaches 360° total,
  // i.e. the unwrapped series ends near 180 - 180 = 0 ... -180 band.
  EXPECT_LT(bp.phase_deg.back(), 10.0);

  // The derived loop metrics agree between the two rounding outcomes.
  const LoopMetrics mp = loop_metrics(bp);
  const LoopMetrics mm = loop_metrics(bm);
  ASSERT_TRUE(mp.phase_margin_deg.has_value());
  ASSERT_TRUE(mm.phase_margin_deg.has_value());
  EXPECT_NEAR(*mp.phase_margin_deg, *mm.phase_margin_deg, 1.5);
}

TEST(Measure, NonInvertingSeedUnaffectedByFold) {
  Circuit c;
  const auto out = c.node("out");
  c.add_resistor("R1", out, ckt::kGround, 1.0);
  c.add_vsource("VREF", out, ckt::kGround, Waveform::dc(0.0));
  const MnaLayout layout(c);
  const int out_idx = layout.node_index(out);
  ASSERT_GE(out_idx, 0);

  AcResult ac;
  ac.ok = true;
  ac.freqs = {1.0, 10.0};
  for (const double im : {-0.01, -0.1}) {
    std::vector<std::complex<double>> sol(layout.size());
    sol[static_cast<std::size_t>(out_idx)] = {10.0, im};
    ac.solutions.push_back(std::move(sol));
  }
  const BodeSeries b = bode_of_node(ac, layout, out);
  // A non-inverting response with a touch of lag keeps its small negative
  // phase; the branch-point fold must not touch it.
  EXPECT_NEAR(b.phase_deg.front(), -0.057, 0.01);
  EXPECT_LT(b.phase_deg.front(), 0.0);
}

TEST(Measure, FirstCrossingNoneWhenGainBelowUnity) {
  BodeSeries b;
  b.freqs = {1.0, 10.0, 100.0};
  b.gain_db = {-5.0, -10.0, -20.0};
  b.phase_deg = {0.0, -30.0, -60.0};
  const LoopMetrics m = loop_metrics(b);
  EXPECT_FALSE(m.unity_gain_freq.has_value());
  EXPECT_FALSE(m.phase_margin_deg.has_value());
}

// ---- open-loop walk -----------------------------------------------------------
//
// Every case compares the walk with the full sweep it replaces, bitwise:
// loop_metrics over every grid point vs. the walk's compressed series.

using Cplx = std::complex<double>;
using Response = std::function<Cplx(double)>;

// The grid yield and verification walk: 121 points, here over 1 Hz..1 GHz.
std::vector<double> walk_grid() { return num::logspace(1.0, 1e9, 121); }

LoopMetrics full_sweep(const std::vector<double>& freqs, const Response& h) {
  BodeSeries b;
  for (const double f : freqs) append_bode_point(&b, f, h(f));
  return loop_metrics(b);
}

// Walks `h` over `freqs`; *solved counts the points evaluated.
LoopMetrics walked(const std::vector<double>& freqs, const Response& h,
                   std::size_t* solved, BodeSeries* series = nullptr) {
  BodeSeries local;
  BodeSeries& b = series != nullptr ? *series : local;
  *solved = 0;
  const bool ok = walk_open_loop_grid(
      freqs,
      [&](std::size_t i, Cplx* v) {
        ++*solved;
        *v = h(freqs[i]);
        return true;
      },
      &b);
  EXPECT_TRUE(ok);
  return loop_metrics(b);
}

void expect_same_crossing_metrics(const LoopMetrics& walk,
                                  const LoopMetrics& full) {
  EXPECT_EQ(walk.dc_gain_db, full.dc_gain_db);
  EXPECT_EQ(walk.unity_gain_freq, full.unity_gain_freq);
  EXPECT_EQ(walk.phase_margin_deg, full.phase_margin_deg);
}

// Real poles (Hz) under DC gain k: k / prod(1 + jf/p).
Response poles(double k, std::vector<double> ps) {
  return [k, ps](double f) {
    Cplx h(k, 0.0);
    for (const double p : ps) h /= Cplx(1.0, f / p);
    return h;
  };
}

// The coarse-only grid: point 0 and every stride-th point.
std::size_t coarse_points(std::size_t n) {
  return 1 + (n - 1 + kOpenLoopStride - 1) / kOpenLoopStride;
}

TEST(OpenLoopWalk, TwoPoleCrossingSolvesAFractionOfTheGrid) {
  const auto freqs = walk_grid();
  const Response h = poles(1e4, {1e2, 3e6});
  std::size_t solved = 0;
  const LoopMetrics w = walked(freqs, h, &solved);
  const LoopMetrics full = full_sweep(freqs, h);
  ASSERT_TRUE(full.unity_gain_freq.has_value());
  expect_same_crossing_metrics(w, full);
  EXPECT_LE(solved, 25u);
}

TEST(OpenLoopWalk, InvertingResponseKeepsTheFirstPointFold) {
  const auto freqs = walk_grid();
  // DC phase sits at the ±180° branch point: rotated by +0.57° the first
  // principal value is about -179.5° and needs the fold, rotated by -0.57°
  // it is about +179.4° and must be left alone.
  for (const double lag : {1e-2, -1e-2}) {
    const Response h = [lag](double f) {
      return poles(-1e3, {1e3, 1e7})(f) * std::polar(1.0, lag);
    };
    std::size_t solved = 0;
    BodeSeries series;
    const LoopMetrics w = walked(freqs, h, &solved, &series);
    EXPECT_NEAR(series.phase_deg.front(), 180.0, 1.0);
    const LoopMetrics full = full_sweep(freqs, h);
    ASSERT_TRUE(full.phase_margin_deg.has_value());
    expect_same_crossing_metrics(w, full);
  }
}

TEST(OpenLoopWalk, GainNeverReachingUnityWalksTheCoarseGridOnly) {
  const auto freqs = walk_grid();
  const Response h = poles(1e6, {1e7});  // still +20 dB at 1 GHz
  std::size_t solved = 0;
  const LoopMetrics w = walked(freqs, h, &solved);
  const LoopMetrics full = full_sweep(freqs, h);
  EXPECT_FALSE(full.unity_gain_freq.has_value());
  expect_same_crossing_metrics(w, full);
  EXPECT_EQ(solved, coarse_points(freqs.size()));
}

TEST(OpenLoopWalk, DcGainBelowUnityHasNoCrossing) {
  const auto freqs = walk_grid();
  const Response h = poles(0.5, {1e3});
  std::size_t solved = 0;
  const LoopMetrics w = walked(freqs, h, &solved);
  const LoopMetrics full = full_sweep(freqs, h);
  EXPECT_LT(full.dc_gain_db, 0.0);
  EXPECT_FALSE(full.unity_gain_freq.has_value());
  expect_same_crossing_metrics(w, full);
  EXPECT_EQ(solved, coarse_points(freqs.size()));
}

TEST(OpenLoopWalk, CrossingExactlyOnAGridPoint) {
  const auto freqs = walk_grid();
  // H is exactly 1 at grid point `k` (falling 1 dB and turning 1° per
  // point): inside a coarse interval, on a coarse point, and at point 0.
  for (const std::size_t k : {std::size_t{43}, std::size_t{40},
                              std::size_t{0}}) {
    const Response h = [&freqs, k](double f) {
      const double i = static_cast<double>(
          std::lower_bound(freqs.begin(), freqs.end(), f) - freqs.begin());
      const double steps = static_cast<double>(k) - i;  // 1 dB per point
      return std::polar(std::pow(10.0, steps / 20.0), util::rad(steps));
    };
    ASSERT_EQ(std::abs(h(freqs[k])), 1.0);
    std::size_t solved = 0;
    const LoopMetrics w = walked(freqs, h, &solved);
    const LoopMetrics full = full_sweep(freqs, h);
    ASSERT_EQ(full.unity_gain_freq, freqs[k]) << "k = " << k;
    expect_same_crossing_metrics(w, full);
  }
}

TEST(OpenLoopWalk, ClusteredPolePairForcesTheQuarterTurnFill) {
  const auto freqs = walk_grid();
  // A Q = 20 complex pair on a real pole, all at 10 kHz: the phase turns
  // ~210° inside one coarse interval, well before the crossing.
  const Response h = [](double f) {
    const double u = f / 1e4;
    return 1e4 / (Cplx(1.0 - u * u, u / 20.0) * Cplx(1.0, u));
  };
  std::size_t solved = 0;
  const LoopMetrics w = walked(freqs, h, &solved);
  const LoopMetrics full = full_sweep(freqs, h);
  ASSERT_TRUE(full.phase_margin_deg.has_value());
  expect_same_crossing_metrics(w, full);

  // Coarse points up to the crossing plus its fill would leave the
  // resonance unfilled; the walk spent more than that.
  const auto ugf_hi = static_cast<std::size_t>(
      std::upper_bound(freqs.begin(), freqs.end(), *full.unity_gain_freq) -
      freqs.begin());
  const std::size_t crossing_only =
      ugf_hi / kOpenLoopStride + kOpenLoopStride + 1;
  EXPECT_GT(solved, crossing_only);

  // Without the fill, the coarse unwrap lands a full turn off.
  BodeSeries coarse;
  for (std::size_t i = 0; i < freqs.size(); i += kOpenLoopStride) {
    append_bode_point(&coarse, freqs[i], h(freqs[i]));
  }
  const LoopMetrics unfilled = loop_metrics(coarse);
  ASSERT_TRUE(unfilled.phase_margin_deg.has_value());
  EXPECT_NEAR(std::abs(*unfilled.phase_margin_deg - *full.phase_margin_deg),
              360.0, 30.0);
}

// A buffered three-section RC ladder behind an inverting source of gain
// 1000: three real poles, an inverting DC phase, a crossing near 3 MHz.
struct Ladder {
  Circuit c;
  ckt::NodeId n1, n2, n3;
};

Ladder inverting_ladder() {
  Ladder l;
  Circuit& c = l.c;
  const auto in = c.node("in");
  l.n1 = c.node("n1");
  l.n2 = c.node("n2");
  l.n3 = c.node("n3");
  c.add_vsource("V1", in, ckt::kGround, Waveform::ac(0.0, 1000.0, 180.0));
  c.add_resistor("R1", in, l.n1, 1e3);
  c.add_capacitor("C1", l.n1, ckt::kGround, 1e-9);
  c.add_resistor("R2", l.n1, l.n2, 1e6);
  c.add_capacitor("C2", l.n2, ckt::kGround, 1e-13);
  c.add_resistor("R3", l.n2, l.n3, 1e9);
  c.add_capacitor("C3", l.n3, ckt::kGround, 1e-17);
  return l;
}

TEST(OpenLoopWalk, CircuitWalkMatchesTheFullSweepAndCountsItsPoints) {
  const Ladder l = inverting_ladder();
  const OpResult op = dc_operating_point(l.c, tech5());
  ASSERT_TRUE(op.converged);
  const auto freqs = walk_grid();
  const MnaLayout layout(l.c);
  const AcResult ac = ac_analysis(l.c, tech5(), op, freqs, 1);
  ASSERT_TRUE(ac.ok);

  obs::Counter& points = obs::Registry::global().counter("sim.ac.points");
  obs::Counter& sweeps = obs::Registry::global().counter("sim.ac.sweeps");
  OpenLoopScratch scratch;
  // Single node, then a differential probe: v(n3) - v(n1).
  for (const AcProbe probe : {AcProbe{l.n3}, AcProbe{l.n3, l.n1}}) {
    BodeSeries full_series;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      append_bode_point(&full_series, freqs[i],
                        ac.voltage(layout, i, probe.pos) -
                            ac.voltage(layout, i, probe.neg));
    }
    const LoopMetrics full = loop_metrics(full_series);
    ASSERT_TRUE(full.unity_gain_freq.has_value());

    const std::uint64_t points0 = points.value();
    const std::uint64_t sweeps0 = sweeps.value();
    const OpenLoopMetrics w =
        open_loop_metrics(l.c, op, freqs, probe, &scratch);
    ASSERT_TRUE(w.ok) << w.error;
    expect_same_crossing_metrics(w.metrics, full);
    EXPECT_FALSE(w.metrics.gain_margin_db.has_value());
    EXPECT_FALSE(w.metrics.bandwidth_3db.has_value());
    EXPECT_EQ(sweeps.value() - sweeps0, 1u);
    EXPECT_EQ(points.value() - points0, scratch.bode.freqs.size());
    EXPECT_LT(scratch.bode.freqs.size(), freqs.size() / 4);
  }
  // The single-node probe reads exactly what bode_of_node reads.
  const OpenLoopMetrics single =
      open_loop_metrics(l.c, op, freqs, {l.n3}, nullptr);
  expect_same_crossing_metrics(single.metrics,
                               loop_metrics(bode_of_node(ac, layout, l.n3)));
}

TEST(OpenLoopWalk, RejectsWhatAcAnalysisRejects) {
  const Ladder l = inverting_ladder();
  OpResult bad;
  const OpenLoopMetrics unconverged =
      open_loop_metrics(l.c, bad, walk_grid(), {l.n3});
  EXPECT_FALSE(unconverged.ok);
  EXPECT_EQ(unconverged.error, "operating point did not converge");

  const OpResult op = dc_operating_point(l.c, tech5());
  ASSERT_TRUE(op.converged);
  const OpenLoopMetrics zero_freq =
      open_loop_metrics(l.c, op, {0.0, 1.0}, {l.n3});
  EXPECT_FALSE(zero_freq.ok);
  EXPECT_EQ(zero_freq.error, "AC frequency must be positive");
}

}  // namespace
}  // namespace oasys::sim
