#include "spice/ac.h"

#include <cmath>
#include <utility>

#include "exec/executor.h"
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

namespace {

using Cplx = std::complex<double>;

// Sets `*m` to the n x n identity, in place when it already has that size.
void set_identity(num::RealMatrix* m, std::size_t n) {
  if (m->rows() == n && m->cols() == n) {
    m->fill(0.0);
  } else {
    *m = num::RealMatrix(n, n);
  }
  for (std::size_t i = 0; i < n; ++i) (*m)(i, i) = 1.0;
}

// The plane rotation [c s; -s c], which maps (a, b) to (r, 0).
struct Givens {
  double c = 1.0;
  double s = 0.0;
  double r = 0.0;
};

Givens givens(double a, double b) {
  const double r = std::hypot(a, b);
  return {a / r, b / r, r};
}

// Rotates rows p and q of `m` over columns [from, cols):
// (x, y) -> (c x + s y, c y - s x).
void rotate_rows(num::RealMatrix* m, std::size_t p, std::size_t q,
                 std::size_t from, const Givens& g) {
  double* rp = m->row(p);
  double* rq = m->row(q);
  for (std::size_t k = from; k < m->cols(); ++k) {
    const double x = rp[k];
    const double y = rq[k];
    rp[k] = g.c * x + g.s * y;
    rq[k] = g.c * y - g.s * x;
  }
}

// Rotates columns p and q of `m` over rows [0, to):
// (x, y) -> (c x - s y, s x + c y), with column p's old values saved in
// `old_p`.  Each pass writes one column: updated in one pass, two
// adjacent columns form a complex product, which GCC's vectorizer turns
// into vfmaddsub under -march=native despite -ffp-contract=off.
void rotate_cols(num::RealMatrix* m, std::size_t p, std::size_t q,
                 std::size_t to, const Givens& g, std::vector<double>* old_p) {
  double* x = old_p->data();
  for (std::size_t k = 0; k < to; ++k) x[k] = m->row(k)[p];
  for (std::size_t k = 0; k < to; ++k) {
    double* r = m->row(k);
    r[p] = g.c * x[k] - g.s * r[q];
  }
  for (std::size_t k = 0; k < to; ++k) {
    double* r = m->row(k);
    r[q] = g.s * x[k] + g.c * r[q];
  }
}

// Complex product and reciprocal by the textbook formulas, without the
// NaN recovery of std::complex.
Cplx mul(Cplx a, Cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// 1 / p into `*inv`; false when p is zero or the result is not finite.
bool reciprocal(Cplx p, Cplx* inv) {
  const double d = p.real() * p.real() + p.imag() * p.imag();
  if (!(d > 0.0) || !std::isfinite(d)) return false;
  *inv = {p.real() / d, -p.imag() / d};
  return std::isfinite(inv->real()) && std::isfinite(inv->imag());
}

// One row of a complex matrix held as separate real and imaginary parts.
struct SplitRow {
  double* re;
  double* im;
};

// b[j] -= l * a[j] for j in [from, n): the elimination and substitution
// update.  The operands are split into real and imaginary arrays so that
// no complex-product pattern reaches the vectorizer, which would fuse it
// into FMAs (vfmaddsub) under -march=native despite -ffp-contract=off.
void sub_scaled(SplitRow b, Cplx l, const double* are, const double* aim,
                std::size_t from, std::size_t n) {
  const double lr = l.real();
  const double li = l.imag();
  for (std::size_t j = from; j < n; ++j) {
    b.re[j] -= lr * are[j] - li * aim[j];
    b.im[j] -= lr * aim[j] + li * are[j];
  }
}

// out = M v for the real matrix whose transpose is `mt`: the rows of `mt`
// scaled by v and summed, so every pass is unit-stride.
void multiply_transposed(const num::RealMatrix& mt, const double* vr,
                         const double* vi, std::vector<Cplx>* out) {
  const std::size_t n = mt.rows();
  out->assign(n, Cplx{});
  Cplx* o = out->data();
  for (std::size_t j = 0; j < n; ++j) {
    const double* row = mt.row(j);
    for (std::size_t i = 0; i < n; ++i) {
      o[i] += Cplx(row[i] * vr[j], row[i] * vi[j]);
    }
  }
}

}  // namespace

const char* AcKernel::assemble(const ckt::Circuit& c, const OpResult& op) {
  if (!op.converged) return "operating point did not converge";
  layout_ = MnaLayout(c);
  const std::size_t n = layout_.size();
  if (op.devices.size() != c.mosfets().size() || op.solution.size() != n) {
    return "operating point does not match circuit";
  }
  build_small_signal_matrices(c, layout_, op, &h_, &t_);

  // AC excitation vector (frequency independent).
  std::vector<Cplx>& b = qtb_;
  b.assign(n, Cplx{});
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    if (v.wave.ac_mag() != 0.0) {
      const double ph = util::rad(v.wave.ac_phase_deg());
      b[layout_.branch_index(k)] = std::polar(v.wave.ac_mag(), ph);
    }
  }
  for (const auto& i : c.isources()) {
    if (i.wave.ac_mag() == 0.0) continue;
    const double ph = util::rad(i.wave.ac_phase_deg());
    const Cplx phasor = std::polar(i.wave.ac_mag(), ph);
    const int ia = layout_.node_index(i.a);
    const int ib = layout_.node_index(i.b);
    // Current flows a -> b: it leaves node a, so the injection at a is -I.
    if (ia >= 0) b[static_cast<std::size_t>(ia)] -= phasor;
    if (ib >= 0) b[static_cast<std::size_t>(ib)] += phasor;
  }

  // Hessenberg-triangular reduction of (G, C), in place.  Every row
  // rotation also updates Q^T and b; every column rotation updates Z^T.
  // A rotation whose target entry is already zero is skipped, so in
  // stage 1 a zero row of C (a branch row) only ever moves by exact
  // swaps.  Two equal branch rows of G (ideal sources in parallel) that
  // meet in a stage-2 rotation cancel to an exact zero row, which the
  // pivot check then reports as singular.
  set_identity(&qt_, n);
  set_identity(&zt_, n);
  column_.resize(n);
  auto rotate_pencil_rows = [&](const Givens& g, std::size_t i,
                                std::size_t h_from, std::size_t t_from) {
    rotate_rows(&h_, i - 1, i, h_from, g);
    rotate_rows(&t_, i - 1, i, t_from, g);
    rotate_rows(&qt_, i - 1, i, 0, g);
    const Cplx x = b[i - 1];
    const Cplx y = b[i];
    b[i - 1] = g.c * x + g.s * y;
    b[i] = g.c * y - g.s * x;
  };
  // Stage 1: C = Q1 R, so T starts upper triangular.
  for (std::size_t j = 0; j + 1 < n; ++j) {
    for (std::size_t i = n - 1; i > j; --i) {
      if (t_(i, j) == 0.0) continue;
      const Givens g = givens(t_(i - 1, j), t_(i, j));
      rotate_pencil_rows(g, i, 0, j);
      t_(i - 1, j) = g.r;
      t_(i, j) = 0.0;
    }
  }
  // Stage 2: zero H below its subdiagonal, column by column from the
  // bottom.  Each row rotation fills T(i, i-1); a column rotation chases
  // it out again.
  for (std::size_t j = 0; j + 2 < n; ++j) {
    for (std::size_t i = n - 1; i > j + 1; --i) {
      if (h_(i, j) == 0.0) continue;
      const Givens g = givens(h_(i - 1, j), h_(i, j));
      rotate_pencil_rows(g, i, j, i - 1);
      h_(i - 1, j) = g.r;
      h_(i, j) = 0.0;
      if (t_(i, i - 1) == 0.0) continue;
      const Givens gc = givens(t_(i, i), t_(i, i - 1));
      rotate_cols(&t_, i - 1, i, i + 1, gc, &column_);
      rotate_cols(&h_, i - 1, i, n, gc, &column_);
      rotate_rows(&zt_, i - 1, i, 0, {gc.c, -gc.s, gc.r});
      t_(i, i - 1) = 0.0;
      t_(i, i) = gc.r;
    }
  }
  return nullptr;
}

bool AcKernel::eliminate(double f, AcPointScratch* ws) const {
  const std::size_t n = layout_.size();
  for (num::RealMatrix* m : {&ws->u_re, &ws->u_im}) {
    if (m->rows() != n || m->cols() != n) *m = num::RealMatrix(n, n);
  }
  ws->inv_pivot.resize(n);
  ws->mult.resize(n);
  ws->swapped.resize(n);
  ws->y_re.resize(n);
  ws->y_im.resize(n);
  if (n == 0) return true;
  const double w = util::kTwoPi * f;
  for (std::size_t i = 0; i < n; ++i) {
    double* re = ws->u_re.row(i);
    double* im = ws->u_im.row(i);
    const double* hi = h_.row(i);
    const double* ti = t_.row(i);
    for (std::size_t j = i > 0 ? i - 1 : 0; j < n; ++j) {
      re[j] = hi[j];
      im[j] = w * ti[j];
    }
  }
  // Gaussian elimination of the Hessenberg matrix: step k only ever
  // pivots between rows k and k+1, and only row k+1 is updated.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    SplitRow a{ws->u_re.row(k), ws->u_im.row(k)};
    SplitRow b{ws->u_re.row(k + 1), ws->u_im.row(k + 1)};
    const bool swap = std::norm(Cplx(b.re[k], b.im[k])) >
                      std::norm(Cplx(a.re[k], a.im[k]));
    if (swap) {
      for (std::size_t j = k; j < n; ++j) {
        std::swap(a.re[j], b.re[j]);
        std::swap(a.im[j], b.im[j]);
      }
    }
    Cplx inv;
    if (!reciprocal({a.re[k], a.im[k]}, &inv)) return false;
    const Cplx l = mul({b.re[k], b.im[k]}, inv);
    sub_scaled(b, l, a.re, a.im, k + 1, n);
    ws->inv_pivot[k] = inv;
    ws->mult[k] = l;
    ws->swapped[k] = swap ? 1 : 0;
  }
  return reciprocal({ws->u_re(n - 1, n - 1), ws->u_im(n - 1, n - 1)},
                    &ws->inv_pivot[n - 1]);
}

bool AcKernel::solve(double f, AcPointScratch* ws,
                     std::vector<Cplx>* x) const {
  if (!eliminate(f, ws)) return false;
  const std::size_t n = layout_.size();
  double* yr = ws->y_re.data();
  double* yi = ws->y_im.data();
  for (std::size_t i = 0; i < n; ++i) {
    yr[i] = qtb_[i].real();
    yi[i] = qtb_[i].imag();
  }
  // Replay the elimination on Q^T b, then back-substitute U.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    if (ws->swapped[k]) {
      std::swap(yr[k], yr[k + 1]);
      std::swap(yi[k], yi[k + 1]);
    }
    const Cplx d = mul(ws->mult[k], {yr[k], yi[k]});
    yr[k + 1] -= d.real();
    yi[k + 1] -= d.imag();
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* re = ws->u_re.row(i);
    const double* im = ws->u_im.row(i);
    double acc_r = yr[i];
    double acc_i = yi[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      acc_r -= re[j] * yr[j] - im[j] * yi[j];
      acc_i -= re[j] * yi[j] + im[j] * yr[j];
    }
    const Cplx v = mul({acc_r, acc_i}, ws->inv_pivot[i]);
    yr[i] = v.real();
    yi[i] = v.imag();
  }
  multiply_transposed(zt_, yr, yi, x);  // x = Z y
  return true;
}

bool AcKernel::transfer_row(double f, std::size_t out, AcPointScratch* ws,
                            std::vector<Cplx>* u) const {
  if (!eliminate(f, ws)) return false;
  const std::size_t n = layout_.size();
  double* sr = ws->y_re.data();
  double* si = ws->y_im.data();
  for (std::size_t j = 0; j < n; ++j) {  // Z^T e_out
    sr[j] = zt_(j, out);
    si[j] = 0.0;
  }
  // U^T w = Z^T e_out, forward by rows of U.
  for (std::size_t i = 0; i < n; ++i) {
    const Cplx wi = mul({sr[i], si[i]}, ws->inv_pivot[i]);
    sr[i] = wi.real();
    si[i] = wi.imag();
    sub_scaled({sr, si}, wi, ws->u_re.row(i), ws->u_im.row(i), i + 1, n);
  }
  // Transposed elimination steps k = n-2 .. 0, last step first.
  for (std::size_t k1 = n; k1 > 1; --k1) {
    const std::size_t k = k1 - 2;
    const Cplx d = mul(ws->mult[k], {sr[k + 1], si[k + 1]});
    sr[k] -= d.real();
    si[k] -= d.imag();
    if (ws->swapped[k]) {
      std::swap(sr[k], sr[k + 1]);
      std::swap(si[k], si[k + 1]);
    }
  }
  multiply_transposed(qt_, sr, si, u);  // u = Q s
  return true;
}

namespace {

// The point loop of both ac_analysis overloads.  Every frequency point is
// an independent kernel solve, so the points distribute over `jobs` lanes
// with each solution landing in its own preallocated slot.  Each lane
// reuses one scratch for all its points, so the sweep loop is
// allocation-free in steady state.  A lane's scratch is fully overwritten
// per point, so results stay bit-for-bit identical at every jobs setting.
AcResult sweep(const AcKernel& kernel, const std::vector<double>& freqs,
               std::size_t jobs) {
  AcResult result;
  for (const double f : freqs) {
    if (!(f > 0.0)) {
      result.error = "AC frequency must be positive";
      return result;
    }
  }
  AcMetrics::get().points.add(freqs.size());
  result.freqs = freqs;
  result.solutions.assign(freqs.size(),
                          std::vector<Cplx>(kernel.layout().size()));
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

}  // namespace

AcResult ac_analysis(const ckt::Circuit& c, const tech::Technology& /*t*/,
                     const OpResult& op, const std::vector<double>& freqs,
                     std::size_t jobs) {
  AcMetrics::get().sweeps.add();
  OBS_SPAN("sim/ac_analysis");
  AcKernel kernel;
  if (const char* error = kernel.assemble(c, op)) {
    AcResult result;
    result.error = error;
    return result;
  }
  return sweep(kernel, freqs, jobs);
}

AcResult ac_analysis(const AcKernel& kernel, const std::vector<double>& freqs,
                     std::size_t jobs) {
  AcMetrics::get().sweeps.add();
  OBS_SPAN("sim/ac_analysis");
  return sweep(kernel, freqs, jobs);
}

}  // namespace oasys::sim
