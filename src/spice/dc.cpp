#include "spice/dc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/span.h"

namespace oasys::sim {

namespace {

// Registry handles for the DC solver, resolved once per process.
struct DcMetrics {
  obs::Counter& solves = obs::Registry::global().counter("sim.newton.solves");
  obs::Counter& iterations =
      obs::Registry::global().counter("sim.newton.iterations");
  obs::Counter& nonconverged =
      obs::Registry::global().counter("sim.newton.nonconverged");
  obs::Counter& op_calls = obs::Registry::global().counter("sim.op.calls");
  obs::Counter& gmin_escalations =
      obs::Registry::global().counter("sim.op.gmin_escalations");
  obs::Counter& source_escalations =
      obs::Registry::global().counter("sim.op.source_escalations");
  obs::Counter& op_failures =
      obs::Registry::global().counter("sim.op.nonconverged");
  obs::Histogram& iters_per_op = obs::Registry::global().count_histogram(
      "sim.op.iterations_per_solve",
      obs::Histogram::exponential_bounds(1.0, 512.0, 2.0));

  static DcMetrics& get() {
    static DcMetrics m;
    return m;
  }
};

// Registry handles for the Newton LU (num::SparseLu), resolved once per
// process.  Counts of work items, so deterministic and jobs-invariant.
struct LuMetrics {
  obs::Counter& analyses = obs::Registry::global().counter("sim.lu.analyses");
  obs::Counter& refactors =
      obs::Registry::global().counter("sim.lu.refactors");
  obs::Counter& replans = obs::Registry::global().counter("sim.lu.replans");

  static LuMetrics& get() {
    static LuMetrics m;
    return m;
  }
};

// Smallest |dvid| a bordered solve must reach to count as converged: the
// xtol the bracket/bisect offset search used.
constexpr double kVidTol = 1e-9;

// One Newton solve at fixed (source_scale, gmin).  Returns true on
// convergence; x is updated in place with the best iterate either way.
// All scratch lives in `ws` — including the device table — so a warm
// iteration allocates nothing.
//
// With a border, vid is one more unknown and x[out] = target one more
// equation.  Keller's block elimination solves the bordered system with
// the one factorization of J: J a = -f and J b = -df/dvid, then
// dvid = (target - x_out - a_out) / b_out and dx = a + b dvid.  A zero
// b_out (the output does not respond to vid) fails the solve.  The border
// is only used at full source scale; border->vid changes only on success.
bool newton_solve(const NonlinearSystem& sys, double source_scale,
                  double gmin, const OpOptions& opts, SimWorkspace* ws,
                  std::vector<double>* x, int* iterations_used,
                  OffsetBorder* border = nullptr) {
  DcMetrics& metrics = DcMetrics::get();
  metrics.solves.add();
  const MnaLayout& layout = sys.layout();
  const std::size_t n = layout.size();
  const std::size_t nv = layout.num_node_unknowns();
  num::RealMatrix& jac = ws->jac;          // eval sizes and refills
  std::vector<double>& f = ws->residual;
  std::vector<double>& dx = ws->step;

  NonlinearSystem::EvalOptions eval_opts;
  eval_opts.source_scale = source_scale;
  eval_opts.gmin = gmin;

  std::size_t vpos = 0, vneg = 0, out = 0;  // the border's MNA rows
  double vid = 0.0;
  if (border != nullptr) {
    if (layout.node_index(border->out) < 0) {
      throw std::invalid_argument("offset border on the ground node");
    }
    vpos = layout.branch_index(border->vpos);
    vneg = layout.branch_index(border->vneg);
    out = static_cast<std::size_t>(layout.node_index(border->out));
    vid = border->vid;
  }
  // f(x), with the driven sources' branch equations v(pos) - v(neg) = V
  // shifted by +-vid/2 under a border.
  auto eval_residual = [&](num::RealMatrix* j) {
    sys.eval(*x, eval_opts, j, &f, nullptr, &ws->devices);
    if (border != nullptr) {
      f[vpos] -= 0.5 * vid;
      f[vneg] += 0.5 * vid;
    }
  };

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    ++*iterations_used;
    metrics.iterations.add();
    eval_residual(&jac);
    if (!factor_jacobian(ws, [&] { eval_residual(&jac); })) {
      metrics.nonconverged.add();
      return false;
    }
    // Newton step: J dx = -f, solved in place in the RHS buffer.
    dx.resize(n);
    for (std::size_t i = 0; i < n; ++i) dx[i] = -f[i];
    ws->lu.solve(&dx);

    double dvid = 0.0;
    if (border != nullptr) {
      std::vector<double>& b = ws->border;
      b.assign(n, 0.0);
      b[vpos] = 0.5;
      b[vneg] = -0.5;
      ws->lu.solve(&b);
      dvid = (border->target - (*x)[out] - dx[out]) / b[out];
      if (!std::isfinite(dvid)) {  // b_out == 0: out ignores vid
        metrics.nonconverged.add();
        return false;
      }
      for (std::size_t i = 0; i < n; ++i) dx[i] += b[i] * dvid;
    }

    // Damping: cap the largest node-voltage change per iteration.  Branch
    // currents (and vid, which moves the input nodes by +-dvid/2) are left
    // unscaled unless voltages needed scaling.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nv; ++i) {
      max_dv = std::max(max_dv, std::abs(dx[i]));
    }
    double scale = 1.0;
    if (max_dv > opts.vlimit_step) scale = opts.vlimit_step / max_dv;
    for (std::size_t i = 0; i < n; ++i) (*x)[i] += scale * dx[i];
    vid += scale * dvid;

    // Converged when the (undamped) voltage and vid updates and the
    // residual are all small.
    if (max_dv < opts.vntol && std::abs(dvid) < kVidTol) {
      eval_residual(nullptr);
      double max_node_residual = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_node_residual = std::max(max_node_residual, std::abs(f[i]));
      }
      if (max_node_residual < opts.abstol) {
        if (border != nullptr) border->vid = vid;
        return true;
      }
    }
  }
  metrics.nonconverged.add();
  return false;
}

}  // namespace

void count_lu_event(LuEvent event) {
  LuMetrics& metrics = LuMetrics::get();
  switch (event) {
    case LuEvent::kAnalysis:
      metrics.analyses.add();
      break;
    case LuEvent::kRefactor:
      metrics.refactors.add();
      break;
    case LuEvent::kReplan:
      metrics.replans.add();
      break;
  }
}

OpResult dc_operating_point(const ckt::Circuit& c, const tech::Technology& t,
                            const OpOptions& opts, SimWorkspace* workspace,
                            OffsetBorder* border, const num::LuPlan* plan) {
  DcMetrics& metrics = DcMetrics::get();
  metrics.op_calls.add();
  OBS_SPAN("sim/dc_operating_point");
  NonlinearSystem sys(c, t);
  const std::size_t n = sys.layout().size();
  SimWorkspace local_ws;
  SimWorkspace* ws = workspace != nullptr ? workspace : &local_ws;

  // (Re)build the SoA device table into the workspace.  Workspaces may be
  // reused across different circuits, so the table is always rebuilt here
  // — a constant fill that allocates only when it grows.
  sys.build_device_table(&ws->devices);
  // The LU plan starts from the caller's, or from none: never from what
  // the workspace held after its last call.
  sys.jacobian_pattern(/*with_caps=*/false, &ws->pattern);
  if (plan != nullptr && plan->planned()) {
    if (!(plan->pattern() == ws->pattern)) {
      throw std::invalid_argument(
          "dc_operating_point: LU plan made for another Jacobian pattern");
    }
    ws->lu.use_plan(*plan);
  } else {
    ws->lu.use_plan(num::LuPlan{});
  }

  OpResult result;
  std::vector<double> x =
      opts.initial_guess.size() == n ? opts.initial_guess
                                     : std::vector<double>(n, 0.0);

  // Strategy 1: plain Newton.
  {
    std::vector<double> trial = x;
    int iters = 0;
    if (newton_solve(sys, 1.0, opts.gmin, opts, ws, &trial, &iters,
                     border)) {
      result.converged = true;
      result.strategy = "newton";
      result.total_iterations = iters;
      result.solution = std::move(trial);
    } else {
      result.total_iterations += iters;
    }
  }

  // Strategy 2: gmin stepping, from strongly shunted to the floor.
  if (!result.converged && border == nullptr && opts.try_gmin_stepping) {
    metrics.gmin_escalations.add();
    std::vector<double> trial(n, 0.0);
    bool ok = true;
    int iters = 0;
    for (double gmin = opts.gmin_step_start; gmin >= opts.gmin * 0.99;
         gmin *= opts.gmin_step_ratio) {
      if (!newton_solve(sys, 1.0, gmin, opts, ws, &trial, &iters)) {
        ok = false;
        break;
      }
    }
    if (ok &&
        newton_solve(sys, 1.0, opts.gmin, opts, ws, &trial, &iters)) {
      result.converged = true;
      result.strategy = "gmin-step";
      result.solution = std::move(trial);
    }
    result.total_iterations += iters;
  }

  // Strategy 3: source stepping with adaptive increments.
  if (!result.converged && border == nullptr && opts.try_source_stepping) {
    metrics.source_escalations.add();
    std::vector<double> trial(n, 0.0);
    double scale = 0.0;
    double step = opts.source_step_initial;
    bool ok = true;
    int iters = 0;
    while (scale < 1.0 && ok) {
      const double next = std::min(scale + step, 1.0);
      std::vector<double> attempt = trial;
      if (newton_solve(sys, next, opts.gmin, opts, ws, &attempt, &iters)) {
        trial = std::move(attempt);
        scale = next;
        step = std::min(step * 2.0, opts.source_step_max);
      } else {
        step *= 0.5;
        if (step < opts.source_step_min) ok = false;
      }
    }
    if (ok) {
      result.converged = true;
      result.strategy = "source-step";
      result.solution = std::move(trial);
    }
    result.total_iterations += iters;
  }

  metrics.iters_per_op.observe(static_cast<double>(result.total_iterations));
  if (result.converged) {
    // Final bookkeeping pass to capture per-device operating info.
    NonlinearSystem::EvalOptions eval_opts;
    eval_opts.gmin = opts.gmin;
    sys.eval(result.solution, eval_opts, nullptr, nullptr, &result.devices,
             &ws->devices);
  } else {
    metrics.op_failures.add();
    result.solution = std::move(x);
  }
  return result;
}

double supply_power(const ckt::Circuit& c, const MnaLayout& layout,
                    const OpResult& op) {
  double power = 0.0;
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    const double vbranch = layout.voltage(op.solution, v.pos) -
                           layout.voltage(op.solution, v.neg);
    // Branch current flows pos -> neg through the source; the power the
    // source *delivers* is -V*I in this convention.
    const double i = op.solution[layout.branch_index(k)];
    power += -vbranch * i;
  }
  for (const auto& isrc : c.isources()) {
    const double va = layout.voltage(op.solution, isrc.a);
    const double vb = layout.voltage(op.solution, isrc.b);
    // Current I flows a -> b through the source; the source delivers
    // I*(vb - va) to the circuit (positive when pushing current into the
    // higher-potential node).
    power += isrc.wave.dc_value() * (vb - va);
  }
  return power;
}

}  // namespace oasys::sim
