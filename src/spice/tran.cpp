#include "spice/tran.h"

#include <algorithm>
#include <cmath>

#include "numeric/interpolate.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "spice/workspace.h"

namespace oasys::sim {

namespace {

// Registry handles for the transient engine, resolved once per process.
struct TranMetrics {
  obs::Counter& runs = obs::Registry::global().counter("sim.tran.runs");
  obs::Counter& steps =
      obs::Registry::global().counter("sim.tran.steps_accepted");
  obs::Counter& iterations =
      obs::Registry::global().counter("sim.tran.newton_iterations");
  obs::Counter& rejections =
      obs::Registry::global().counter("sim.tran.step_rejections");
  obs::Counter& adaptive_steps =
      obs::Registry::global().counter("tran.adaptive.steps");
  obs::Counter& adaptive_rejects =
      obs::Registry::global().counter("tran.adaptive.rejects");
  // Smallest accepted adaptive step: a low-water gauge, merged with kMin so
  // the shard coordinator's aggregate is invariant to how requests were
  // partitioned across workers.
  obs::Gauge& adaptive_min_dt = obs::Registry::global().gauge(
      "tran.adaptive.min_dt", /*deterministic=*/true, obs::GaugeMerge::kMin);

  static TranMetrics& get() {
    static TranMetrics m;
    return m;
  }
};

}  // namespace

std::vector<double> TranResult::node_waveform(const MnaLayout& layout,
                                              ckt::NodeId n) const {
  std::vector<double> out;
  out.reserve(states.size());
  for (const auto& s : states) out.push_back(layout.voltage(s, n));
  return out;
}

double TranResult::voltage_at(const MnaLayout& layout, ckt::NodeId n,
                              double t) const {
  return num::interp_linear(time, node_waveform(layout, n), t);
}

void CapSlots::build(const NonlinearSystem& sys) {
  const MnaLayout& layout = sys.layout();
  const ckt::Circuit& c = sys.circuit();
  const std::size_t n = layout.size();

  // Every contribution in dense-build order.  `source` < 0 names explicit
  // capacitor -1 - source, else device capacitance dev_caps_[source].
  struct Contribution {
    int row, col;
    double sign;
    long source;
  };
  std::vector<Contribution> list;
  const auto emit = [&](int row, int col, double sign, long source) {
    if (row >= 0 && col >= 0) list.push_back({row, col, sign, source});
  };
  for (std::size_t i = 0; i < c.capacitors().size(); ++i) {
    const auto& cap = c.capacitors()[i];
    const int ia = layout.node_index(cap.a);
    const int ib = layout.node_index(cap.b);
    const long source = -1 - static_cast<long>(i);
    emit(ia, ia, 1.0, source);
    emit(ia, ib, -1.0, source);
    emit(ib, ia, -1.0, source);
    emit(ib, ib, 1.0, source);
  }
  const auto& mosfets = c.mosfets();
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    const auto& m = mosfets[k];
    const ckt::NodeId pairs[5][2] = {
        {m.g, m.s}, {m.g, m.d}, {m.g, m.b}, {m.d, m.b}, {m.s, m.b}};
    for (std::size_t q = 0; q < 5; ++q) {
      const int ia = layout.node_index(pairs[q][0]);
      const int ib = layout.node_index(pairs[q][1]);
      const long source = static_cast<long>(5 * k + q);
      emit(ia, ia, 1.0, source);
      emit(ib, ib, 1.0, source);
      emit(ia, ib, -1.0, source);
      emit(ib, ia, -1.0, source);
    }
  }

  num::SparsePattern pattern;
  pattern.reset(n);
  for (const Contribution& e : list) {
    pattern.add(static_cast<std::size_t>(e.row),
                static_cast<std::size_t>(e.col));
  }
  row_begin_.assign(1, 0);
  col_.clear();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t col = 0; col < n; ++col) {
      if (pattern.has(r, col)) col_.push_back(static_cast<std::uint32_t>(col));
    }
    row_begin_.push_back(static_cast<std::uint32_t>(col_.size()));
  }

  base_.assign(col_.size(), 0.0);
  add_slot_.clear();
  add_cap_.clear();
  add_sign_.clear();
  for (const Contribution& e : list) {
    const auto row = static_cast<std::size_t>(e.row);
    const auto first = col_.begin() + row_begin_[row];
    const auto slot = static_cast<std::uint32_t>(
        std::lower_bound(first, col_.begin() + row_begin_[row + 1],
                         static_cast<std::uint32_t>(e.col)) -
        col_.begin());
    if (e.source < 0) {
      const auto i = static_cast<std::size_t>(-1 - e.source);
      base_[slot] += e.sign * c.capacitors()[i].capacitance;
    } else {
      add_slot_.push_back(slot);
      add_cap_.push_back(static_cast<std::uint32_t>(e.source));
      add_sign_.push_back(e.sign);
    }
  }
  dev_caps_.assign(5 * mosfets.size(), 0.0);
  value_ = base_;
}

void CapSlots::refresh(const NonlinearSystem& sys,
                       const std::vector<double>& x, DeviceTable* devices) {
  sys.evaluate_devices(x, devices);
  update_junction_caps(devices, x);
  const std::size_t ndev = dev_caps_.size() / 5;
  for (std::size_t k = 0; k < ndev; ++k) {
    const MosCaps mc = devices->caps(k);
    double* dc = &dev_caps_[5 * k];
    dc[0] = mc.cgs;
    dc[1] = mc.cgd;
    dc[2] = mc.cgb;
    dc[3] = mc.cdb;
    dc[4] = mc.csb;
  }
  sum_slots();
}

void CapSlots::sum_slots() {
  std::copy(base_.begin(), base_.end(), value_.begin());
  for (std::size_t i = 0; i < add_slot_.size(); ++i) {
    value_[add_slot_[i]] += add_sign_[i] * dev_caps_[add_cap_[i]];
  }
}

namespace {

enum class StepStatus { kConverged, kNoConverge, kSingular };

// One implicit step of size h ending at `time`, shared by both stepping
// strategies: a full Newton solve of the companion-model system.  `*x_io`
// carries the initial guess in and the solution out (left mid-iteration on
// failure — callers retry from a fresh copy).
//
// Newton stops when the undamped update falls below vntol, or earlier on
// its contraction rate (Hairer & Wanner, Solving ODEs II, §IV.8): with
// theta = |dx_k| / |dx_{k-1}| over two undamped iterations, the error left
// in x after step k is about theta / (1 - theta) * |dx_k|, and once that
// is below vntol the next iteration would only confirm convergence.
struct StepContext {
  NonlinearSystem& sys;
  SimWorkspace& ws;
  const CapSlots& caps;
  const TranOptions& opts;
  std::size_t n;
  std::size_t nv;
  // a*C and C*dvdt_prev slot by slot, fixed for one step attempt.
  std::vector<double> a_c, hist;

  StepStatus solve(double time, double h, bool trapezoidal,
                   const std::vector<double>& x_prev,
                   const std::vector<double>& dvdt_prev,
                   std::vector<double>* x_io) {
    TranMetrics& metrics = TranMetrics::get();
    std::vector<double>& x = *x_io;
    num::RealMatrix& jac = ws.jac;
    std::vector<double>& f = ws.residual;
    std::vector<double>& dx = ws.step;

    NonlinearSystem::EvalOptions eval_opts;
    eval_opts.gmin = opts.gmin;
    eval_opts.time = time;

    // Companion coefficients.  i_C = C dv/dt.  Backward Euler:
    // i = C (x - x_prev)/h.  Trapezoidal: i = 2C/h (x - x_prev) - C*dvdt_prev.
    const double a = trapezoidal ? 2.0 / h : 1.0 / h;
    const std::vector<std::uint32_t>& row_begin = caps.row_begin();
    const std::vector<std::uint32_t>& cols = caps.col();
    const std::vector<double>& cv = caps.value();
    a_c.resize(cv.size());
    hist.resize(cv.size());
    for (std::size_t t = 0; t < cv.size(); ++t) {
      a_c[t] = cv[t] * a;
      if (trapezoidal) hist[t] = cv[t] * dvdt_prev[cols[t]];
    }
    const auto assemble = [&] {
      sys.eval(x, eval_opts, &jac, &f, nullptr, &ws.devices);
      // Add capacitive currents: f += C*(a*(x - x_prev)) - hist
      // where hist = C*dvdt_prev for trapezoidal, 0 for BE.
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        double* jrow = jac.row(r);
        for (std::size_t t = row_begin[r]; t < row_begin[r + 1]; ++t) {
          const std::size_t col = cols[t];
          acc += a_c[t] * (x[col] - x_prev[col]);
          if (trapezoidal) acc -= hist[t];
          jrow[col] += a_c[t];
        }
        f[r] += acc;
      }
    };
    double last_dv = 0.0;  // the previous update's |dx|; 0 when damped
    for (int iter = 0; iter < opts.max_newton; ++iter) {
      metrics.iterations.add();
      assemble();
      if (!factor_jacobian(&ws, assemble)) return StepStatus::kSingular;
      dx.resize(n);
      for (std::size_t i = 0; i < n; ++i) dx[i] = -f[i];
      ws.lu.solve(&dx);
      double max_dv = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_dv = std::max(max_dv, std::abs(dx[i]));
      }
      const bool damped = max_dv > opts.vlimit_step;
      const double scale = damped ? opts.vlimit_step / max_dv : 1.0;
      for (std::size_t i = 0; i < n; ++i) x[i] += scale * dx[i];
      if (max_dv < opts.vntol) return StepStatus::kConverged;
      if (!damped && last_dv > 0.0) {
        const double theta = max_dv / last_dv;
        if (theta < 1.0 && theta / (1.0 - theta) * max_dv < opts.vntol) {
          return StepStatus::kConverged;
        }
      }
      last_dv = damped ? 0.0 : max_dv;
    }
    return StepStatus::kNoConverge;
  }
};

// Every source corner in [0, tstop], ascending and without repeats.
std::vector<double> source_breakpoints(const ckt::Circuit& c, double tstop) {
  std::vector<double> out;
  const auto add = [&](const ckt::Waveform& w) {
    const std::vector<double> b = w.breakpoints(tstop);
    out.insert(out.end(), b.begin(), b.end());
  };
  for (const auto& v : c.vsources()) add(v.wave);
  for (const auto& i : c.isources()) add(i.wave);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Newton's starting guess at `t`: the polynomial through the last
// `order + 1` samples (0 holds the last sample, 2 is a quadratic).
void predict(const std::vector<double>& time,
             const std::vector<std::vector<double>>& states,
             std::size_t order, double t, std::vector<double>* x) {
  const std::size_t k = time.size() - 1;
  *x = states[k];
  if (order == 0) return;
  double weight[3];
  for (std::size_t j = 0; j <= order; ++j) {
    weight[j] = 1.0;
    for (std::size_t m = 0; m <= order; ++m) {
      if (m != j) {
        weight[j] *= (t - time[k - m]) / (time[k - j] - time[k - m]);
      }
    }
  }
  for (std::size_t i = 0; i < x->size(); ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j <= order; ++j) v += weight[j] * states[k - j][i];
    (*x)[i] = v;
  }
}

// Weighted max norm, over the node voltages, of the trapezoidal local
// truncation error h^3/12 * |x'''| of the step to (t3, x3).  x''' is six
// times the third divided difference of the last three samples and the
// candidate.
double lte_norm(const std::vector<double>& time,
                const std::vector<std::vector<double>>& states, double t3,
                const std::vector<double>& x3, std::size_t nv, double rtol,
                double atol) {
  const std::size_t k = time.size() - 1;
  const double t0 = time[k - 2], t1 = time[k - 1], t2 = time[k];
  const std::vector<double>& x0 = states[k - 2];
  const std::vector<double>& x1 = states[k - 1];
  const std::vector<double>& x2 = states[k];
  const double h = t3 - t2;
  const double scale = 0.5 * h * h * h;  // h^3/12 * 3!
  double norm = 0.0;
  for (std::size_t i = 0; i < nv; ++i) {
    const double d01 = (x1[i] - x0[i]) / (t1 - t0);
    const double d12 = (x2[i] - x1[i]) / (t2 - t1);
    const double d23 = (x3[i] - x2[i]) / (t3 - t2);
    const double d012 = (d12 - d01) / (t2 - t0);
    const double d123 = (d23 - d12) / (t3 - t1);
    const double d0123 = (d123 - d012) / (t3 - t0);
    const double lte = scale * std::abs(d0123);
    norm = std::max(norm, lte / (atol + rtol * std::abs(x3[i])));
  }
  return norm;
}

}  // namespace

TranResult transient(const ckt::Circuit& c, const tech::Technology& t,
                     const OpResult& op, const TranOptions& opts) {
  TranMetrics& metrics = TranMetrics::get();
  metrics.runs.add();
  OBS_SPAN("sim/transient");
  TranResult result;
  if (!op.converged) {
    result.error = "initial operating point did not converge";
    return result;
  }
  if (!(opts.tstop > 0.0) || !(opts.dt > 0.0)) {
    result.error = "tstop and dt must be positive";
    return result;
  }

  NonlinearSystem sys(c, t);
  const MnaLayout& layout = sys.layout();
  const std::size_t n = layout.size();
  const std::size_t nv = layout.num_node_unknowns();

  std::vector<double> x = op.solution;
  result.time.push_back(0.0);
  result.states.push_back(x);

  // One workspace for every Newton iteration of every timestep: after the
  // first iteration the stepping loop allocates only the accepted states.
  // The run plans its LU on its first Jacobian (pattern G + C) and keeps
  // the plan to the end, re-planning only when a pivot fails.
  SimWorkspace ws;
  sys.build_device_table(&ws.devices);
  sys.jacobian_pattern(/*with_caps=*/true, &ws.pattern);

  CapSlots caps;  // C at the operating point
  caps.build(sys);
  caps.refresh(sys, x, &ws.devices);
  std::vector<double> dvdt_prev(n, 0.0);  // starts from DC: dv/dt = 0

  StepContext ctx{sys, ws, caps, opts, n, nv, {}, {}};

  // Accepts a step ending at `time` with solution `x_new`: the derivative
  // the step's integration rule implies (the next trapezoidal step's
  // history), device-capacitance refresh at the new bias, and the new
  // sample.
  const auto accept = [&](double time, double h,
                          const std::vector<double>& x_new,
                          bool trapezoidal) {
    const std::vector<double>& x_prev = result.states.back();
    const double a = 2.0 / h;
    for (std::size_t i = 0; i < n; ++i) {
      dvdt_prev[i] = trapezoidal ? a * (x_new[i] - x_prev[i]) - dvdt_prev[i]
                                 : (x_new[i] - x_prev[i]) / h;
    }
    caps.refresh(sys, x_new, &ws.devices);
    result.time.push_back(time);
    result.states.push_back(x_new);
    metrics.steps.add();
  };

  if (resolve_tran_mode(opts.mode) == TranMode::kFixed) {
    std::size_t step = 0;
    while (result.time.back() < opts.tstop) {
      ++step;
      double time = static_cast<double>(step) * opts.dt;
      // Shortened (or snapped) final step: the last sample lands exactly
      // on tstop even when tstop is not an integer multiple of dt.
      if (time >= opts.tstop) time = opts.tstop;
      const double h = time - result.time.back();
      if (h <= 0.0) break;
      const StepStatus status = ctx.solve(time, h, opts.trapezoidal,
                                          result.states.back(), dvdt_prev, &x);
      if (status == StepStatus::kSingular) {
        result.error = "singular transient Jacobian";
        return result;
      }
      if (status == StepStatus::kNoConverge) {
        // The fixed-step integrator has no retry-with-smaller-h path, so a
        // rejected step ends the run; the counter still attributes the
        // failure mode.
        metrics.rejections.add();
        result.error = "transient Newton failed at t=" + std::to_string(time);
        return result;
      }
      accept(time, h, x, opts.trapezoidal);
    }
    result.ok = true;
    return result;
  }

  // ---- Adaptive: one trapezoidal solve per step, error from history ----
  //
  // The trapezoidal local truncation error is h^3/12 * |x'''|; x''' comes
  // from the third divided difference of the candidate and the last three
  // accepted samples, and the weighted max norm over the node voltages
  // decides accept/reject and sizes the next step.  Newton starts from a
  // quadratic through the last three samples.  Steps land on every source
  // corner, where x''' is meaningless: the history restarts there, as it
  // starts at t = 0, with two backward-Euler steps of dt/16 (which also
  // damp the trapezoidal ringing a corner excites).  The loop is serial
  // with deterministic branching, so repeated runs are bit-identical
  // regardless of thread counts anywhere else in the stack.
  OBS_SPAN("tran/adaptive");
  const TranTolerance defaults = tran_tolerance_default();
  const double rtol = opts.rtol > 0.0 ? opts.rtol : defaults.rtol;
  const double atol = opts.atol > 0.0 ? opts.atol : defaults.atol;
  const double dt_min = opts.dt_min > 0.0 ? opts.dt_min : opts.tstop * 1e-12;
  const double dt_max = opts.dt_max > 0.0 ? opts.dt_max : opts.tstop / 8.0;
  const double h_restart = std::clamp(opts.dt / 16.0, dt_min, dt_max);
  const std::vector<double> corners = source_breakpoints(c, opts.tstop);
  std::size_t next_corner = 0;
  std::size_t anchor = 0;  // sample the history restarts from
  double h = h_restart;
  int consecutive_rejects = 0;
  while (result.time.back() < opts.tstop) {
    const std::size_t k = result.time.size() - 1;
    const double t_prev = result.time[k];
    while (next_corner < corners.size() && corners[next_corner] <= t_prev) {
      ++next_corner;
    }
    const double limit =
        next_corner < corners.size() ? corners[next_corner] : opts.tstop;
    const double time = std::min(t_prev + h, limit);  // exact landing
    const double h_try = time - t_prev;
    if (h_try <= 0.0) break;  // cannot advance in double precision

    // Backward Euler for the first two steps after a restart; from then on
    // three accepted samples since the anchor carry the error estimate.
    const std::size_t known = k - anchor;
    const bool trapezoidal = known >= 2;
    predict(result.time, result.states, std::min<std::size_t>(known, 2),
            time, &x);
    const StepStatus status = ctx.solve(time, h_try, trapezoidal,
                                        result.states[k], dvdt_prev, &x);
    if (status == StepStatus::kSingular) {
      result.error = "singular transient Jacobian";
      return result;
    }
    const double err_norm =
        status == StepStatus::kConverged && trapezoidal
            ? lte_norm(result.time, result.states, time, x, nv, rtol, atol)
            : 0.0;
    // Step factor from the error estimate: the LTE scales as h^3.
    const double factor = std::clamp(
        0.9 * std::cbrt(1.0 / std::max(err_norm, 1e-12)), 0.3, 2.0);

    if (status == StepStatus::kConverged && err_norm <= 1.0) {
      accept(time, h_try, x, trapezoidal);
      metrics.adaptive_steps.add();
      metrics.adaptive_min_dt.set_min(h_try);
      consecutive_rejects = 0;
      if (time == limit && next_corner < corners.size()) {
        anchor = k + 1;
        h = h_restart;
      } else if (trapezoidal) {
        h = std::clamp(h_try * factor, dt_min, dt_max);
      }
    } else {
      metrics.adaptive_rejects.add();
      ++consecutive_rejects;
      if (consecutive_rejects > opts.max_step_rejects) {
        result.error = "adaptive transient gave up after " +
                       std::to_string(consecutive_rejects) +
                       " consecutive step rejections at t=" +
                       std::to_string(time);
        return result;
      }
      // Error too large: shrink by the estimate.  Newton failure: the step
      // was far too big for the nonlinearity — quarter it.
      h = h_try * (status == StepStatus::kConverged ? factor : 0.25);
      if (h < dt_min) {
        result.error =
            "adaptive transient step underflow at t=" + std::to_string(time);
        return result;
      }
    }
  }
  result.ok = true;
  return result;
}

}  // namespace oasys::sim
