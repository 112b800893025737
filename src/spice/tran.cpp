#include "spice/tran.h"

#include <algorithm>
#include <cmath>

#include "numeric/interpolate.h"
#include "numeric/linear.h"
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

namespace {

// Builds the capacitance matrix into `*cmat_out` (reused across timesteps):
// explicit capacitors plus device capacitances evaluated from `device_ops`
// (bias at the previous accepted time point).
void build_cap_matrix(const NonlinearSystem& sys,
                      const std::vector<DeviceOp>& device_ops,
                      num::RealMatrix* cmat_out) {
  const MnaLayout& layout = sys.layout();
  const std::size_t n = layout.size();
  num::RealMatrix& cmat = *cmat_out;
  if (cmat.rows() != n || cmat.cols() != n) {
    cmat = num::RealMatrix(n, n);
  } else {
    cmat.fill(0.0);  // stamp_linear_caps accumulates
  }
  sys.stamp_linear_caps(&cmat);
  auto add2 = [&](ckt::NodeId a, ckt::NodeId b, double value) {
    const int ia = layout.node_index(a);
    const int ib = layout.node_index(b);
    if (ia >= 0) cmat(static_cast<std::size_t>(ia),
                      static_cast<std::size_t>(ia)) += value;
    if (ib >= 0) cmat(static_cast<std::size_t>(ib),
                      static_cast<std::size_t>(ib)) += value;
    if (ia >= 0 && ib >= 0) {
      cmat(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib)) -=
          value;
      cmat(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia)) -=
          value;
    }
  };
  const auto& mosfets = sys.circuit().mosfets();
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    const auto& m = mosfets[k];
    const DeviceOp& d = device_ops[k];
    add2(m.g, m.s, d.cgs);
    add2(m.g, m.d, d.cgd);
    add2(m.g, m.b, d.cgb);
    add2(m.d, m.b, d.cdb);
    add2(m.s, m.b, d.csb);
  }
}

enum class StepStatus { kConverged, kNoConverge, kSingular };

// One implicit step of size h ending at `time`, shared by both stepping
// strategies: a full Newton solve of the companion-model system.  `*x_io`
// carries the initial guess in and the solution out (left mid-iteration on
// failure — callers retry from a fresh copy).  The arithmetic is the exact
// fixed-step reference sequence, so the fixed path stays bit-identical to
// what it always produced.
struct StepContext {
  NonlinearSystem& sys;
  SimWorkspace& ws;
  const num::RealMatrix& cmat;
  const TranOptions& opts;
  std::size_t n;
  std::size_t nv;

  StepStatus solve(double time, double h, bool trapezoidal,
                   const std::vector<double>& x_prev,
                   const std::vector<double>& dvdt_prev,
                   std::vector<double>* x_io) const {
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
    for (int iter = 0; iter < opts.max_newton; ++iter) {
      metrics.iterations.add();
      sys.eval(x, eval_opts, &jac, &f, nullptr, &ws.devices);
      // Add capacitive currents: f += C*(a*(x - x_prev)) - hist
      // where hist = C*dvdt_prev for trapezoidal, 0 for BE.
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        const double* crow = cmat.row(r);
        for (std::size_t col = 0; col < n; ++col) {
          const double cv = crow[col];
          if (cv != 0.0) {
            acc += cv * a * (x[col] - x_prev[col]);
            if (trapezoidal) acc -= cv * dvdt_prev[col];
          }
          if (cv != 0.0) jac(r, col) += cv * a;
        }
        f[r] += acc;
      }

      num::lu_factor_in_place(&jac, &ws.lu);
      if (ws.lu.singular) return StepStatus::kSingular;
      dx.resize(n);
      for (std::size_t i = 0; i < n; ++i) dx[i] = -f[i];
      num::lu_solve_in_place(ws.lu, &dx);
      double max_dv = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_dv = std::max(max_dv, std::abs(dx[i]));
      }
      double scale = 1.0;
      if (max_dv > opts.vlimit_step) scale = opts.vlimit_step / max_dv;
      for (std::size_t i = 0; i < n; ++i) x[i] += scale * dx[i];
      if (max_dv < opts.vntol) return StepStatus::kConverged;
    }
    return StepStatus::kNoConverge;
  }
};

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
  std::vector<DeviceOp> device_ops = op.devices;
  if (device_ops.size() != c.mosfets().size()) {
    device_ops.assign(c.mosfets().size(), DeviceOp{});
  }

  result.time.push_back(0.0);
  result.states.push_back(x);

  num::RealMatrix cmat;
  build_cap_matrix(sys, device_ops, &cmat);
  std::vector<double> dvdt_prev(n, 0.0);  // starts from DC: dv/dt = 0

  // One workspace for every Newton iteration of every timestep: after the
  // first iteration the stepping loop allocates only the accepted states.
  SimWorkspace ws;
  sys.build_device_table(&ws.devices);

  const StepContext ctx{sys, ws, cmat, opts, n, nv};
  NonlinearSystem::EvalOptions refresh_opts;
  refresh_opts.gmin = opts.gmin;

  // Accepts a step ending at `time` with solution `x_new`: trapezoidal
  // history update, device-capacitance refresh at the new bias, and the
  // new sample.
  const auto accept = [&](double time, double h,
                          const std::vector<double>& x_new) {
    const std::vector<double>& x_prev = result.states.back();
    const double a = 2.0 / h;
    for (std::size_t i = 0; i < n; ++i) {
      dvdt_prev[i] = a * (x_new[i] - x_prev[i]) - dvdt_prev[i];
    }
    refresh_opts.time = time;
    sys.eval(x_new, refresh_opts, nullptr, nullptr, &device_ops, &ws.devices);
    build_cap_matrix(sys, device_ops, &cmat);
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
      if (opts.trapezoidal) {
        accept(time, h, x);
      } else {
        refresh_opts.time = time;
        sys.eval(x, refresh_opts, nullptr, nullptr, &device_ops, &ws.devices);
        build_cap_matrix(sys, device_ops, &cmat);
        result.time.push_back(time);
        result.states.push_back(x);
        metrics.steps.add();
      }
    }
    result.ok = true;
    return result;
  }

  // ---- Adaptive: trapezoidal with an embedded backward-Euler estimate ----
  //
  // Every candidate step is solved twice from the same starting point:
  // trapezoidal (second order, the propagating solution) and backward
  // Euler (first order).  Their difference is a per-variable local-error
  // estimate; the weighted max norm over the node voltages decides
  // accept/reject and feeds a PI controller for the next step size.  The
  // loop is serial with deterministic branching, so repeated runs are
  // bit-identical regardless of thread counts anywhere else in the stack.
  OBS_SPAN("tran/adaptive");
  const TranTolerance defaults = tran_tolerance_default();
  const double rtol = opts.rtol > 0.0 ? opts.rtol : defaults.rtol;
  const double atol = opts.atol > 0.0 ? opts.atol : defaults.atol;
  const double dt_min = opts.dt_min > 0.0 ? opts.dt_min : opts.tstop * 1e-12;
  const double dt_max = opts.dt_max > 0.0 ? opts.dt_max : opts.tstop / 8.0;
  double h = std::clamp(opts.dt, dt_min, dt_max);
  double norm_prev = 1.0;
  int consecutive_rejects = 0;
  std::vector<double> x_trap;
  std::vector<double> x_be;
  while (result.time.back() < opts.tstop) {
    const double t_prev = result.time.back();
    double time = t_prev + h;
    if (time >= opts.tstop) time = opts.tstop;  // exact landing
    const double h_try = time - t_prev;
    if (h_try <= 0.0) break;  // cannot advance in double precision

    const std::vector<double>& x_prev = result.states.back();
    x_trap = x_prev;
    StepStatus status =
        ctx.solve(time, h_try, /*trapezoidal=*/true, x_prev, dvdt_prev,
                  &x_trap);
    if (status == StepStatus::kSingular) {
      result.error = "singular transient Jacobian";
      return result;
    }
    double err_norm = 0.0;
    if (status == StepStatus::kConverged) {
      x_be = x_prev;
      const StepStatus be_status =
          ctx.solve(time, h_try, /*trapezoidal=*/false, x_prev, dvdt_prev,
                    &x_be);
      if (be_status == StepStatus::kSingular) {
        result.error = "singular transient Jacobian";
        return result;
      }
      if (be_status == StepStatus::kConverged) {
        for (std::size_t i = 0; i < nv; ++i) {
          const double err = std::abs(x_trap[i] - x_be[i]);
          const double weight = atol + rtol * std::abs(x_trap[i]);
          err_norm = std::max(err_norm, err / weight);
        }
      } else {
        status = StepStatus::kNoConverge;
      }
    }

    if (status == StepStatus::kConverged && err_norm <= 1.0) {
      accept(time, h_try, x_trap);
      metrics.adaptive_steps.add();
      metrics.adaptive_min_dt.set_min(h_try);
      consecutive_rejects = 0;
      // PI controller: grow on a small error estimate, damped by the
      // previous step's error so the step size doesn't oscillate.
      const double norm = std::max(err_norm, 1e-10);
      const double factor = std::clamp(
          0.9 * std::pow(norm, -0.35) * std::pow(norm_prev, 0.2), 0.2, 5.0);
      norm_prev = norm;
      h = std::clamp(h_try * factor, dt_min, dt_max);
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
      const double factor =
          status == StepStatus::kConverged
              ? std::clamp(0.9 * std::pow(std::max(err_norm, 1e-10), -0.5),
                           0.1, 0.5)
              : 0.25;
      h = h_try * factor;
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
