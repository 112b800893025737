#include "spice/ac.h"

#include <cmath>

#include "exec/executor.h"
#include "numeric/linear.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "spice/small_signal.h"
#include "util/units.h"

namespace oasys::sim {

namespace {

// Registry handles for the AC engine, resolved once per process.
struct AcMetrics {
  obs::Counter& sweeps = obs::Registry::global().counter("sim.ac.sweeps");
  obs::Counter& points = obs::Registry::global().counter("sim.ac.points");

  static AcMetrics& get() {
    static AcMetrics m;
    return m;
  }
};

}  // namespace

void build_small_signal_matrices(const ckt::Circuit& c,
                                 const MnaLayout& layout, const OpResult& op,
                                 num::RealMatrix* g_out,
                                 num::RealMatrix* cap_out) {
  const std::size_t n = layout.size();
  num::RealMatrix& g = *g_out;
  num::RealMatrix& cap = *cap_out;
  // Zero in place when the size already fits: a warm kernel re-stamps
  // without allocating.
  for (num::RealMatrix* m : {&g, &cap}) {
    if (m->rows() == n && m->cols() == n) {
      m->fill(0.0);
    } else {
      *m = num::RealMatrix(n, n);
    }
  }

  auto add_g = [&](int r, int col, double v) {
    if (r >= 0 && col >= 0) {
      g(static_cast<std::size_t>(r), static_cast<std::size_t>(col)) += v;
    }
  };
  auto add_c2 = [&](ckt::NodeId a, ckt::NodeId b, double value) {
    const int ia = layout.node_index(a);
    const int ib = layout.node_index(b);
    if (ia >= 0) cap(static_cast<std::size_t>(ia),
                     static_cast<std::size_t>(ia)) += value;
    if (ib >= 0) cap(static_cast<std::size_t>(ib),
                     static_cast<std::size_t>(ib)) += value;
    if (ia >= 0 && ib >= 0) {
      cap(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib)) -=
          value;
      cap(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia)) -=
          value;
    }
  };

  // Tiny shunt keeps floating small-signal nodes non-singular.
  for (std::size_t i = 0; i < layout.num_node_unknowns(); ++i) {
    add_g(static_cast<int>(i), static_cast<int>(i), 1e-12);
  }

  for (const auto& r : c.resistors()) {
    const double gr = 1.0 / r.resistance;
    const int ia = layout.node_index(r.a);
    const int ib = layout.node_index(r.b);
    add_g(ia, ia, gr);
    add_g(ib, ib, gr);
    add_g(ia, ib, -gr);
    add_g(ib, ia, -gr);
  }
  for (const auto& cc : c.capacitors()) {
    add_c2(cc.a, cc.b, cc.capacitance);
  }
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    const int ip = layout.node_index(v.pos);
    const int in = layout.node_index(v.neg);
    const int ibr = static_cast<int>(layout.branch_index(k));
    add_g(ip, ibr, 1.0);
    add_g(in, ibr, -1.0);
    add_g(ibr, ip, 1.0);
    add_g(ibr, in, -1.0);
  }
  for (std::size_t k = 0; k < c.mosfets().size(); ++k) {
    const auto& m = c.mosfets()[k];
    const DeviceOp& d = op.devices[k];
    const int id_ = layout.node_index(m.d);
    const int ig = layout.node_index(m.g);
    const int is = layout.node_index(m.s);
    const int ib = layout.node_index(m.b);
    // Terminal-frame derivatives stamp directly as a 2-row VCCS block.
    add_g(id_, ig, d.di_dvg);
    add_g(id_, id_, d.di_dvd);
    add_g(id_, is, d.di_dvs);
    add_g(id_, ib, d.di_dvb);
    add_g(is, ig, -d.di_dvg);
    add_g(is, id_, -d.di_dvd);
    add_g(is, is, -d.di_dvs);
    add_g(is, ib, -d.di_dvb);
    // Capacitances at the bias point.
    add_c2(m.g, m.s, d.cgs);
    add_c2(m.g, m.d, d.cgd);
    add_c2(m.g, m.b, d.cgb);
    add_c2(m.d, m.b, d.cdb);
    add_c2(m.s, m.b, d.csb);
  }
}

const char* AcKernel::assemble(const ckt::Circuit& c, const OpResult& op) {
  if (!op.converged) return "operating point did not converge";
  layout_ = MnaLayout(c);
  const std::size_t n = layout_.size();
  if (op.devices.size() != c.mosfets().size() || op.solution.size() != n) {
    return "operating point does not match circuit";
  }
  build_small_signal_matrices(c, layout_, op, &g_, &cap_);

  // AC excitation vector (frequency independent).
  using Cplx = std::complex<double>;
  rhs_.assign(n, Cplx{});
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    if (v.wave.ac_mag() != 0.0) {
      const double ph = util::rad(v.wave.ac_phase_deg());
      rhs_[layout_.branch_index(k)] = std::polar(v.wave.ac_mag(), ph);
    }
  }
  for (const auto& i : c.isources()) {
    if (i.wave.ac_mag() == 0.0) continue;
    const double ph = util::rad(i.wave.ac_phase_deg());
    const Cplx phasor = std::polar(i.wave.ac_mag(), ph);
    const int ia = layout_.node_index(i.a);
    const int ib = layout_.node_index(i.b);
    // Current flows a -> b: it leaves node a, so the injection at a is -I.
    if (ia >= 0) rhs_[static_cast<std::size_t>(ia)] -= phasor;
    if (ib >= 0) rhs_[static_cast<std::size_t>(ib)] += phasor;
  }
  return nullptr;
}

bool AcKernel::solve(double f, AcPointScratch* ws,
                     std::vector<std::complex<double>>* x) const {
  const std::size_t n = layout_.size();
  if (ws->y.rows() != n || ws->y.cols() != n) {
    ws->y = num::ComplexMatrix(n, n);
  }
  fill_complex_mna(ws->y.data(), g_.data(), cap_.data(), util::kTwoPi * f,
                   n * n);
  num::lu_factor_in_place(&ws->y, &ws->lu);
  if (ws->lu.singular) return false;
  *x = rhs_;  // same size: copies into existing storage
  num::lu_solve_in_place(ws->lu, x);
  return true;
}

AcResult ac_analysis(const ckt::Circuit& c, const tech::Technology& /*t*/,
                     const OpResult& op, const std::vector<double>& freqs,
                     std::size_t jobs) {
  AcMetrics& metrics = AcMetrics::get();
  metrics.sweeps.add();
  OBS_SPAN("sim/ac_analysis");
  AcResult result;
  if (!op.converged) {
    result.error = "operating point did not converge";
    return result;
  }
  // Validate the sweep before any O(n^2) stamping work.
  for (const double f : freqs) {
    if (!(f > 0.0)) {
      result.error = "AC frequency must be positive";
      return result;
    }
  }
  AcKernel kernel;
  if (const char* error = kernel.assemble(c, op)) {
    result.error = error;
    return result;
  }
  const std::size_t n = kernel.layout().size();

  // Every frequency point is an independent kernel solve, so the points
  // distribute over `jobs` lanes with each solution landing in its own
  // preallocated slot.  Each lane reuses one matrix + factorization for
  // all its points, so the sweep loop is allocation-free in steady state.
  // A lane's scratch is fully overwritten per point, so results stay
  // bit-for-bit identical at every jobs setting.
  metrics.points.add(freqs.size());
  result.freqs = freqs;
  result.solutions.assign(freqs.size(),
                          std::vector<std::complex<double>>(n));
  std::vector<char> singular(freqs.size(), 0);
  std::vector<AcPointScratch> lanes(exec::lane_count(freqs.size(), jobs));
  exec::parallel_for_lanes(
      freqs.size(),
      [&](std::size_t i, std::size_t lane) {
        if (!kernel.solve(freqs[i], &lanes[lane], &result.solutions[i])) {
          singular[i] = 1;
        }
      },
      jobs);
  for (const char s : singular) {
    if (s) {
      result.solutions.clear();
      result.error = "singular AC matrix";
      return result;
    }
  }
  result.ok = true;
  return result;
}

}  // namespace oasys::sim
