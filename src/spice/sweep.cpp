#include "spice/sweep.h"

#include "exec/executor.h"

namespace oasys::sim {

std::vector<double> DcSweepResult::node_voltages(const MnaLayout& layout,
                                                 ckt::NodeId node) const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(layout.voltage(p.solution, node));
  return out;
}

DcSweepResult dc_sweep_vsource(ckt::Circuit& c, const tech::Technology& t,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const OpOptions& base_opts) {
  DcSweepResult result;
  const auto idx = c.find_vsource(source_name);
  if (!idx) {
    result.error = "no voltage source named '" + source_name + "'";
    return result;
  }
  const ckt::Waveform original = c.vsource(*idx).wave;

  OpOptions opts = base_opts;
  // One workspace shared by every point of the warm-started sweep.  With
  // the batch device path this includes the SoA device table: each point
  // rebuilds its constants in place (sizes never change mid-sweep), so the
  // whole sweep stays allocation-free after the first point.
  // Each point hands the LU plan it ended with to the next, as it hands
  // on its solution as the warm start: every point has the same Jacobian
  // pattern, and neighbouring points rarely need a different pivot order
  // (the first point's plan alone, made with the input pair cut off at a
  // rail, fails the pivot check at most points of an ICMR sweep).
  SimWorkspace ws;
  num::LuPlan plan;
  for (const double v : values) {
    c.vsource(*idx).wave = original.with_dc(v);
    OpResult op = dc_operating_point(c, t, opts, &ws, nullptr, &plan);
    if (!op.converged) {
      c.vsource(*idx).wave = original;
      result.error = "sweep point did not converge at value " +
                     std::to_string(v);
      return result;
    }
    plan = ws.lu.plan();
    opts.initial_guess = op.solution;  // warm start the next point
    result.values.push_back(v);
    result.points.push_back(std::move(op));
  }
  c.vsource(*idx).wave = original;
  result.ok = true;
  return result;
}

namespace {

// Shared setup for the point-parallel sweeps: per-point error slots whose
// lowest non-empty entry becomes the sweep error (deterministic regardless
// of which lane failed first in wall-clock terms).
bool collect_point_errors(const std::vector<std::string>& point_errors,
                          std::string* error) {
  for (const auto& e : point_errors) {
    if (!e.empty()) {
      *error = e;
      return false;
    }
  }
  return true;
}

}  // namespace

AcSweepResult ac_sweep_vsource(const ckt::Circuit& c,
                               const tech::Technology& t,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const std::vector<double>& freqs,
                               const OpOptions& base_opts, std::size_t jobs) {
  AcSweepResult result;
  const auto idx = c.find_vsource(source_name);
  if (!idx) {
    result.error = "no voltage source named '" + source_name + "'";
    return result;
  }
  result.values = values;
  result.ops.resize(values.size());
  result.points.resize(values.size());
  std::vector<std::string> point_errors(values.size());
  std::vector<SimWorkspace> lane_ws(exec::lane_count(values.size(), jobs));
  exec::parallel_for_lanes(
      values.size(),
      [&](std::size_t i, std::size_t lane) {
        ckt::Circuit local = c;  // private copy: sources mutate per point
        local.vsource(*idx).wave =
            local.vsource(*idx).wave.with_dc(values[i]);
        result.ops[i] = dc_operating_point(local, t, base_opts,
                                           &lane_ws[lane]);
        if (!result.ops[i].converged) {
          point_errors[i] = "sweep point did not converge at value " +
                            std::to_string(values[i]);
          return;
        }
        // Nested region: the per-frequency fan-out inside ac_analysis runs
        // inline on this lane.
        result.points[i] = ac_analysis(local, t, result.ops[i], freqs, jobs);
        if (!result.points[i].ok) {
          point_errors[i] = "AC failed at value " + std::to_string(values[i]) +
                            ": " + result.points[i].error;
        }
      },
      jobs);
  result.ok = collect_point_errors(point_errors, &result.error);
  return result;
}

TranSweepResult tran_sweep_vsource(const ckt::Circuit& c,
                                   const tech::Technology& t,
                                   const std::string& source_name,
                                   const std::vector<double>& values,
                                   const TranOptions& tran_opts,
                                   const OpOptions& base_opts,
                                   std::size_t jobs) {
  TranSweepResult result;
  const auto idx = c.find_vsource(source_name);
  if (!idx) {
    result.error = "no voltage source named '" + source_name + "'";
    return result;
  }
  result.values = values;
  result.ops.resize(values.size());
  result.runs.resize(values.size());
  std::vector<std::string> point_errors(values.size());
  std::vector<SimWorkspace> lane_ws(exec::lane_count(values.size(), jobs));
  exec::parallel_for_lanes(
      values.size(),
      [&](std::size_t i, std::size_t lane) {
        ckt::Circuit local = c;
        local.vsource(*idx).wave =
            local.vsource(*idx).wave.with_dc(values[i]);
        result.ops[i] = dc_operating_point(local, t, base_opts,
                                           &lane_ws[lane]);
        if (!result.ops[i].converged) {
          point_errors[i] = "sweep point did not converge at value " +
                            std::to_string(values[i]);
          return;
        }
        result.runs[i] = transient(local, t, result.ops[i], tran_opts);
        if (!result.runs[i].ok) {
          point_errors[i] = "transient failed at value " +
                            std::to_string(values[i]) + ": " +
                            result.runs[i].error;
        }
      },
      jobs);
  result.ok = collect_point_errors(point_errors, &result.error);
  return result;
}

}  // namespace oasys::sim
