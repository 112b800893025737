// The reduced-pencil AC kernel against dense per-point LU.
//
// AcKernel reduces G + jwC to Hessenberg-triangular form once per
// operating point and solves each frequency in O(n^2).  These tests pin it
// to test-local references that factor the full complex MNA matrix with
// num::LuFactors at every point: the paper cases on both built-in
// processes at every point of the open-loop grid, the noise spectrum
// against one LU solve per source, the adjoint row against the forward
// solve, and a singular pencil, which every analysis must still reject.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "spice/ac.h"
#include "spice/measure.h"
#include "spice/noise.h"
#include "spice/small_signal.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::sim {
namespace {

using Cplx = std::complex<double>;

// A paper case synthesized on `t` and its open-loop bench nulled: the
// operating point measure_opamp runs its AC and noise analyses at.
struct NulledCase {
  std::string name;
  tech::Technology tech;
  synth::OpAmpDesign design;
  synth::OpenLoopBench bench;
  OpResult op;
};

std::vector<NulledCase> nulled_paper_cases() {
  std::vector<NulledCase> out;
  for (const tech::Technology& t :
       {tech::five_micron(), tech::three_micron()}) {
    for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
      const synth::SynthesisResult r = synth::synthesize_opamp(t, spec);
      if (r.best() == nullptr) continue;
      NulledCase c;
      c.name = spec.name + " on " + t.name;
      c.tech = t;
      c.design = *r.best();
      c.bench = synth::OpenLoopBench(c.design, t);
      const synth::OffsetNull null = synth::measure_offset(&c.bench, t);
      if (!null.ok) continue;
      c.op = null.op;
      out.push_back(std::move(c));
    }
  }
  return out;
}

const std::vector<NulledCase>& cases() {
  static const std::vector<NulledCase> c = nulled_paper_cases();
  return c;
}

// Dense LU reference: G + jwC factored from scratch at `f`.
num::LuFactors<Cplx> reference_lu(const ckt::Circuit& c, const OpResult& op,
                                  double f) {
  const MnaLayout layout(c);
  const std::size_t n = layout.size();
  num::RealMatrix g;
  num::RealMatrix cap;
  build_small_signal_matrices(c, layout, op, &g, &cap);
  num::ComplexMatrix y(n, n);
  const double w = util::kTwoPi * f;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) y(r, k) = Cplx(g(r, k), w * cap(r, k));
  }
  return num::lu_factor(std::move(y));
}

std::vector<Cplx> excitation(const ckt::Circuit& c) {
  const MnaLayout layout(c);
  std::vector<Cplx> rhs(layout.size(), Cplx{});
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    if (v.wave.ac_mag() != 0.0) {
      rhs[layout.branch_index(k)] =
          std::polar(v.wave.ac_mag(), util::rad(v.wave.ac_phase_deg()));
    }
  }
  return rhs;
}

double normwise_error(const std::vector<Cplx>& x,
                      const std::vector<Cplx>& ref) {
  double err = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    err = std::max(err, std::abs(x[k] - ref[k]));
  }
  return err / num::max_abs(ref);
}

void expect_rel_near(double got, double want, double rel,
                     const std::string& what) {
  EXPECT_LE(std::abs(got - want), rel * std::abs(want))
      << what << ": " << got << " vs " << want;
}

TEST(AcKernel, PaperCasesMatchPerPointLuOnTheOpenLoopGrid) {
  ASSERT_EQ(cases().size(), 6u);
  for (const NulledCase& nc : cases()) {
    SCOPED_TRACE(nc.name);
    const ckt::Circuit& c = nc.bench.circuit;
    const MnaLayout layout(c);
    const std::vector<double> freqs = synth::open_loop_freqs(nc.design);
    const AcResult ac = ac_analysis(c, nc.tech, nc.op, freqs, 1);
    ASSERT_TRUE(ac.ok) << ac.error;

    AcResult ref = ac;
    const std::vector<Cplx> rhs = excitation(c);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const num::LuFactors<Cplx> lu = reference_lu(c, nc.op, freqs[i]);
      ASSERT_FALSE(lu.singular);
      ref.solutions[i] = num::lu_solve(lu, rhs);
      EXPECT_LE(normwise_error(ac.solutions[i], ref.solutions[i]), 1e-6)
          << "f=" << freqs[i];
    }

    const ckt::NodeId out = nc.bench.nodes.out;
    const LoopMetrics got = loop_metrics(bode_of_node(ac, layout, out));
    const LoopMetrics want = loop_metrics(bode_of_node(ref, layout, out));
    expect_rel_near(got.dc_gain_db, want.dc_gain_db, 1e-7, "gain");
    ASSERT_TRUE(want.unity_gain_freq.has_value());
    ASSERT_TRUE(got.unity_gain_freq.has_value());
    expect_rel_near(*got.unity_gain_freq, *want.unity_gain_freq, 1e-7, "gbw");
    ASSERT_TRUE(got.phase_margin_deg.has_value());
    expect_rel_near(*got.phase_margin_deg, *want.phase_margin_deg, 1e-7,
                    "pm");
  }
}

TEST(AcKernel, TransferRowReadsTheForwardSolutionAtTheOutput) {
  for (const NulledCase& nc : cases()) {
    SCOPED_TRACE(nc.name);
    const ckt::Circuit& c = nc.bench.circuit;
    AcKernel kernel;
    ASSERT_EQ(kernel.assemble(c, nc.op), nullptr);
    const auto out = static_cast<std::size_t>(
        kernel.layout().node_index(nc.bench.nodes.out));
    const std::vector<Cplx> rhs = excitation(c);
    AcPointScratch ws;
    std::vector<Cplx> x;
    std::vector<Cplx> u;
    for (const double f : synth::open_loop_freqs(nc.design)) {
      ASSERT_TRUE(kernel.solve(f, &ws, &x));
      ASSERT_TRUE(kernel.transfer_row(f, out, &ws, &u));
      Cplx via_row{};
      for (std::size_t k = 0; k < rhs.size(); ++k) via_row += u[k] * rhs[k];
      EXPECT_LE(std::abs(via_row - x[out]), 1e-6 * num::max_abs(x))
          << "f=" << f;
    }
  }
}

TEST(AcKernel, NoiseMatchesPerSourceLuReference) {
  for (const NulledCase& nc : cases()) {
    SCOPED_TRACE(nc.name);
    const ckt::Circuit& c = nc.bench.circuit;
    const tech::Technology& t = nc.tech;
    const MnaLayout layout(c);
    const std::size_t iout =
        static_cast<std::size_t>(layout.node_index(nc.bench.nodes.out));
    // The band measure_opamp analyses, up to the predicted GBW.
    const double gbw = nc.design.predicted.gbw;
    const std::vector<double> freqs =
        num::logspace(std::max(1e3, gbw * 1e-3), gbw, 25);
    const NoiseResult nr =
        noise_analysis(c, t, nc.op, nc.bench.nodes.out, freqs);
    ASSERT_TRUE(nr.ok) << nr.error;

    // Reference: one LU per frequency, one solve per source.
    const std::vector<NoiseSource> sources = noise_sources(c, t, nc.op);
    std::vector<double> last(sources.size(), 0.0);
    for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
      const num::LuFactors<Cplx> lu = reference_lu(c, nc.op, freqs[fi]);
      ASSERT_FALSE(lu.singular);
      double psd = 0.0;
      for (std::size_t si = 0; si < sources.size(); ++si) {
        std::vector<Cplx> r(layout.size(), Cplx{});
        const int ia = layout.node_index(sources[si].a);
        const int ib = layout.node_index(sources[si].b);
        if (ia >= 0) r[static_cast<std::size_t>(ia)] -= 1.0;
        if (ib >= 0) r[static_cast<std::size_t>(ib)] += 1.0;
        const std::vector<Cplx> x = num::lu_solve(lu, r);
        last[si] = std::norm(x[iout]) * sources[si].psd(freqs[fi]);
        psd += last[si];
      }
      expect_rel_near(nr.output_psd[fi], psd, 1e-6,
                      "psd at f=" + std::to_string(freqs[fi]));
    }

    std::vector<std::size_t> order(sources.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return last[a] > last[b];
    });
    ASSERT_EQ(nr.top_contributors.size(),
              std::min<std::size_t>(sources.size(), 8));
    for (std::size_t i = 0; i < nr.top_contributors.size(); ++i) {
      EXPECT_EQ(nr.top_contributors[i].element, sources[order[i]].element)
          << "rank " << i;
      EXPECT_EQ(nr.top_contributors[i].kind, sources[order[i]].kind)
          << "rank " << i;
    }
  }
}

TEST(AcKernel, SingularPencilFailsEveryAnalysis) {
  // Two ideal voltage sources in parallel: their branch rows of G are
  // equal and their rows of C are zero, so G + jwC is singular at every
  // frequency.  No DC solve converges on it, so the operating point is
  // the trivial one a source-and-resistor circuit has.
  ckt::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("V1", in, ckt::kGround, ckt::Waveform::ac(0.0, 1.0, 0.0));
  c.add_vsource("V2", in, ckt::kGround, ckt::Waveform::dc(0.0));
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, ckt::kGround, 1e-9);
  OpResult op;
  op.converged = true;
  op.solution.assign(MnaLayout(c).size(), 0.0);

  const std::vector<double> freqs = num::logspace(1.0, 1e6, 13);
  const AcResult ac = ac_analysis(c, tech::five_micron(), op, freqs, 1);
  EXPECT_FALSE(ac.ok);
  EXPECT_EQ(ac.error, "singular AC matrix");

  const OpenLoopMetrics walk = open_loop_metrics(c, op, freqs, {out});
  EXPECT_FALSE(walk.ok);
  EXPECT_EQ(walk.error, "singular AC matrix");

  const NoiseResult nr =
      noise_analysis(c, tech::five_micron(), op, out, freqs);
  EXPECT_FALSE(nr.ok);
  EXPECT_EQ(nr.error, "singular noise matrix");
}

}  // namespace
}  // namespace oasys::sim
