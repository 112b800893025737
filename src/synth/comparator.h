// Comparator synthesis — the paper's other named extension ("more
// sub-block types (e.g., comparators)").
//
// The comparator reuses the op-amp hierarchy's sub-blocks (differential
// pair, mirror load, tail source, bias chain) under a different
// translation plan: the block is used open loop, so there is no
// compensation or phase-margin goal at all; instead the plan designs to
// *resolution* (the smallest input overdrive that must produce a valid
// logic swing) and *propagation delay* (slewing plus linear-regeneration
// time).  This is the framework's reuse story made concrete: one set of
// sub-block designers, two very different block-level plans.
#pragma once

#include "core/spec.h"
#include "synth/opamp_design.h"
#include "synth/testbench.h"
#include "tech/technology.h"

namespace oasys::synth {

struct ComparatorSpec {
  std::string name;
  double resolution = 0.0;   // input overdrive to resolve [V]
  double tprop_max = 0.0;    // propagation delay bound at `resolution` [s]
  double cload = 0.0;        // [F]
  // Output must reach at least out_high and at most out_low (absolute
  // volts) under +/-resolution drive.
  double out_high = 0.0;
  double out_low = 0.0;
  double icmr_lo = 0.0;      // [V]
  double icmr_hi = 0.0;
  double power_max = 0.0;    // [W]; 0 = unconstrained

  util::DiagnosticLog validate() const;
  std::string to_string() const;
};

struct ComparatorDesign {
  ComparatorSpec spec;
  bool feasible = false;
  // The structural result reuses the op-amp representation (the netlist
  // builder renders it; styles kOneStageOta with optional cascoding).
  OpAmpDesign amp;

  // Comparator-axis predictions:
  double gain_db = 0.0;
  double delay = 0.0;        // predicted propagation delay [s]
  double offset = 0.0;       // systematic offset (eats into resolution) [V]
  double power = 0.0;
  double area = 0.0;
};

ComparatorDesign design_comparator(const tech::Technology& t,
                                   const ComparatorSpec& spec,
                                   const SynthOptions& opts = {});

// Transient verification: preset the input a resolution below the trip
// point, step it a resolution above, and time the output's crossing of
// mid-supply (and symmetrically for the falling direction).
struct MeasuredComparator {
  bool ok = false;
  std::string error;
  double delay_rising = 0.0;   // [s]
  double delay_falling = 0.0;  // [s]
  double out_high = 0.0;       // settled levels under +/-resolution [V]
  double out_low = 0.0;
  double offset = 0.0;         // from the op-amp offset search [V]
  double power = 0.0;
};

MeasuredComparator measure_comparator(const ComparatorDesign& design,
                                      const tech::Technology& t);

// Step fixture of measure_comparator: the amplifier open loop with the
// spec load, its negative input at the ICMR midpoint and its positive
// input a pulse of +/-resolution about the trip point (the midpoint plus
// `offset_applied`, the nulled offset).  The input rises at t_rise and
// falls at t_fall, four tprop_max later; `tran` spans both half periods
// with an initial step of tprop_max/400 and rtol 1e-6, its stepping mode
// left at kDefault.
struct ComparatorBench {
  ckt::Circuit circuit;
  ckt::NodeId out = ckt::kGround;
  double t_rise = 0.0;  // [s]
  double t_fall = 0.0;  // [s]
  sim::TranOptions tran;
};

ComparatorBench comparator_bench(const ComparatorDesign& design,
                                 const tech::Technology& t,
                                 double offset_applied);

// Runs the fixture under `tran` and fills m's delays (each from its input
// edge to the output's first mid-supply crossing, interpolated between
// samples) and settled levels.  On failure sets m->error and returns
// false.  measure_comparator runs it with b.tran.
bool comparator_step_response(const ComparatorBench& b,
                              const tech::Technology& t,
                              const sim::TranOptions& tran,
                              MeasuredComparator* m);

}  // namespace oasys::synth
