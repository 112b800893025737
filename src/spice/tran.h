// Transient analysis.
//
// Implicit integration (backward Euler or trapezoidal) with a Newton solve
// per time point.  Device capacitances are linearized at the start of each
// step (their bias dependence is weak compared to the channel current
// nonlinearity, which is handled fully by the Newton loop) and refreshed in
// fixed slots after each accepted step (CapSlots).  Each step's Newton
// stops once the update falls below vntol, or once its contraction rate
// shows the error left is below vntol (Hairer & Wanner, Solving ODEs II,
// §IV.8).  Used by the measurement layer for slew-rate and settling checks.
//
// Two stepping strategies (TranMode, see spice/sim_options.h):
//
//  - kAdaptive (the built-in default): one trapezoidal solve per step.
//    The local truncation error h^3/12*|x'''|, with x''' from the third
//    divided difference of the last four samples, is measured per node
//    voltage against atol + rtol*|x|; a step is rejected and retried when
//    it exceeds 1, and the next step is h*clamp(0.9*err^(-1/3), 0.3, 2).
//    Newton starts from a quadratic through the last three samples.
//    Steps land on every source corner (ckt::Waveform::breakpoints),
//    where the history restarts with two backward-Euler steps of dt/16.
//    Serial and branch-deterministic, so the output is bit-identical to
//    itself across repeats, --jobs settings, shard worker counts, and
//    daemon-vs-local — but only tolerance-equal to kFixed.
//  - kFixed: marches dt-sized steps with a shortened final step landing
//    exactly on tstop.  The permanent bitwise reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spice/dc.h"
#include "spice/sim_options.h"

namespace oasys::sim {

// The transient's capacitance matrix C in fixed slots, laid out once per
// run.  The slots are C's row-major CSR (compressed sparse row) layout:
// every entry any bias can fill, from the explicit capacitors and each MOS
// device's gate and junction capacitances.  Each contribution — one
// capacitance added to or subtracted from one entry — records the slot it
// adds into, in the order a dense build stamps them: each explicit
// capacitor c across (a, b) as (a,a) += c, (a,b) -= c, (b,a) -= c,
// (b,b) += c, then per device cgs, cgd, cgb, cdb and csb across their
// terminal pair as (a,a) += c, (b,b) += c, (a,b) -= c, (b,a) -= c.
// Every entry so sums the same terms in the same order as a dense n x n
// build, and a refill reproduces it bit for bit while touching only the
// slots.
class CapSlots {
 public:
  // Lays out the slots of `sys`'s circuit and sums its explicit
  // capacitors; every device capacitance starts at zero.  Allocates.
  void build(const NonlinearSystem& sys);
  // Refills C at the unknown vector `x`: re-biases `devices` (a table
  // built for the same circuit), runs the batch kernel and one pow pair
  // per junction (update_junction_caps), and sums the slots.  No Jacobian
  // or residual is stamped.  Allocation-free.
  void refresh(const NonlinearSystem& sys, const std::vector<double>& x,
               DeviceTable* devices);

  // n + 1 offsets into col() and value(), row by row.
  const std::vector<std::uint32_t>& row_begin() const { return row_begin_; }
  const std::vector<std::uint32_t>& col() const { return col_; }
  const std::vector<double>& value() const { return value_; }

 private:
  void sum_slots();  // value_ = base_ plus every device contribution

  std::vector<std::uint32_t> row_begin_, col_;
  std::vector<double> value_;
  std::vector<double> base_;      // the explicit capacitors alone
  std::vector<double> dev_caps_;  // 5 per device: cgs, cgd, cgb, cdb, csb
  // Device contribution i adds add_sign_[i] * dev_caps_[add_cap_[i]] into
  // value_[add_slot_[i]].
  std::vector<std::uint32_t> add_slot_, add_cap_;
  std::vector<double> add_sign_;
};

struct TranOptions {
  double tstop = 0.0;     // end time [s], > 0
  // Fixed step; the adaptive engine steps dt/16 after t = 0 and after
  // each source corner [s], > 0.
  double dt = 0.0;
  bool trapezoidal = true;  // false = backward Euler (fixed mode only)
  int max_newton = 60;
  double vntol = 1e-6;
  double gmin = 1e-12;
  double vlimit_step = 0.6;
  // Stepping strategy; kDefault resolves to the process-wide default
  // (tran_mode_default(), normally kAdaptive).
  TranMode mode = TranMode::kDefault;
  // Adaptive error tolerances; values <= 0 resolve to the process-wide
  // defaults (tran_tolerance_default()).
  double rtol = 0.0;
  double atol = 0.0;
  // Adaptive step bounds; values <= 0 derive from the run: dt_min =
  // tstop * 1e-12, dt_max = tstop / 8.
  double dt_min = 0.0;
  double dt_max = 0.0;
  // Consecutive step rejections before the adaptive run gives up.
  int max_step_rejects = 40;
};

struct TranResult {
  bool ok = false;
  std::string error;
  std::vector<double> time;  // sample instants, starting at t=0
  std::vector<std::vector<double>> states;  // raw unknown vector per sample

  double voltage(const MnaLayout& layout, std::size_t sample,
                 ckt::NodeId n) const {
    return layout.voltage(states.at(sample), n);
  }
  // Whole waveform of one node.
  std::vector<double> node_waveform(const MnaLayout& layout,
                                    ckt::NodeId n) const;
  // Dense output: one node's voltage at an arbitrary time, linearly
  // interpolated between samples (clamped to the simulated range).  Works
  // identically on the fixed grid and the non-uniform adaptive grid, so
  // waveform-derived metrics never depend on where the controller placed
  // its samples.
  double voltage_at(const MnaLayout& layout, ckt::NodeId n, double t) const;
};

// Integrates from the DC operating point `op` (computed with t=0 source
// values) to tstop.
TranResult transient(const ckt::Circuit& c, const tech::Technology& t,
                     const OpResult& op, const TranOptions& opts);

}  // namespace oasys::sim
