// DC operating-point analysis.
//
// Newton-Raphson on the MNA residual with voltage-step damping.  When plain
// Newton fails to converge, gmin stepping and then source stepping are
// attempted (the standard SPICE homotopies), each warm-starting from the
// previous continuation point.
//
// An optional border turns the solve into an offset-null search: a
// differential input `vid` joins the MNA unknowns and one extra equation
// pins an output node to a target level (see OffsetBorder).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spice/mna.h"
#include "spice/workspace.h"

namespace oasys::sim {

struct OpOptions {
  int max_iterations = 200;
  double vntol = 1e-6;     // voltage-update convergence tolerance [V]
  double abstol = 1e-9;    // residual-current convergence tolerance [A]
  double gmin = 1e-12;     // floor shunt conductance, always present
  double vlimit_step = 0.6;  // max node-voltage change per Newton step [V]
  bool try_gmin_stepping = true;
  bool try_source_stepping = true;
  // Continuation (homotopy) tuning.  Defaults reproduce the classic SPICE
  // schedule; sweeps and corner runs can loosen or tighten them per call.
  double gmin_step_start = 1e-2;  // initial shunt for gmin stepping [S]
  double gmin_step_ratio = 0.1;   // per-step gmin multiplier, in (0, 1)
  double source_step_initial = 0.1;  // first source-scale increment
  double source_step_max = 0.25;     // increment growth cap after success
  double source_step_min = 1e-3;     // give up when increment falls below
  // Warm start (raw unknown vector from a previous OpResult); empty = flat.
  std::vector<double> initial_guess;
};

struct OpResult {
  bool converged = false;
  std::string strategy;  // "newton", "gmin-step", "source-step"
  int total_iterations = 0;
  std::vector<double> solution;  // raw unknown vector (see MnaLayout)
  std::vector<DeviceOp> devices;  // parallel to circuit.mosfets()

  // Convenience accessors (require the layout used to produce `solution`).
  double voltage(const MnaLayout& layout, ckt::NodeId n) const {
    return layout.voltage(solution, n);
  }
  double branch_current(const MnaLayout& layout,
                        std::size_t vsource_pos) const {
    return solution[layout.branch_index(vsource_pos)];
  }
};

// Bordered unknown for the offset null.  The differential input `vid` is
// applied as +vid/2 on source `vpos` and -vid/2 on source `vneg`, on top
// of their circuit values, and is solved for together with the MNA
// vector under one extra equation, v(out) = target.
struct OffsetBorder {
  std::size_t vpos = 0;  // vsource index driven by +vid/2
  std::size_t vneg = 0;  // vsource index driven by -vid/2
  ckt::NodeId out = ckt::kGround;
  double target = 0.0;   // output level the border pins [V]
  double vid = 0.0;      // start value on entry; the null when converged
};

// Computes the DC operating point.  Never throws on non-convergence; check
// result.converged.  When `workspace` is non-null its buffers are reused
// across every Newton strategy (and across calls, letting warm-started
// sweeps run allocation-free in the kernel loop); results are bit-for-bit
// identical with or without one.
//
// Every Newton iteration of the call factors J through one num::SparseLu
// plan (see spice/workspace.h): `plan`, when given and planned, else one
// made on the call's first Jacobian; a pivot that fails the threshold
// re-plans for the rest of the call.  `plan` must come from a circuit with
// the same Jacobian pattern (std::invalid_argument otherwise); the plan the
// call ended with is left in workspace->lu.plan() for the caller to hand
// on.  The results depend on the plan at rounding level, which is why it
// is only ever handed on explicitly.
//
// With a `border`, each Newton iteration factors J once and solves it for
// two right-hand sides (Keller's block elimination, no bordered matrix is
// built), and only plain Newton is tried: the homotopies solve a different
// problem.  Convergence additionally needs the last |dvid| below 1e-9 V.
// The solution is the operating point at source values shifted by
// +-border->vid/2; the circuit itself is not modified.
OpResult dc_operating_point(const ckt::Circuit& c, const tech::Technology& t,
                            const OpOptions& opts = {},
                            SimWorkspace* workspace = nullptr,
                            OffsetBorder* border = nullptr,
                            const num::LuPlan* plan = nullptr);

// Total power delivered by the independent sources at the operating point
// (positive = dissipated in the circuit).
double supply_power(const ckt::Circuit& c, const MnaLayout& layout,
                    const OpResult& op);

}  // namespace oasys::sim
