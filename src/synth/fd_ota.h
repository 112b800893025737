// Fully differential OTA — the second topology named in the paper's
// future-work list ("folded cascade and fully differential styles").
//
// Topology template: NMOS differential pair with PMOS current-source
// loads and differential outputs, plus the piece that makes fully
// differential circuits a genuinely different design problem: a
// common-mode feedback (CMFB) loop.  The output common mode is sensed
// through source followers and an averaging resistor pair, compared to a
// reference by a small CMFB amplifier, and fed back to the load gates;
// an explicit capacitor keeps the CM loop dominant-pole compensated.
//
// Device roles: "M1"/"M2" (pair), "ML3"/"ML4" (loads, CMFB-controlled),
// "M5" (tail tap), "SF1"/"SF2" (sense followers) with "SFB1"/"SFB2"
// (their sink taps), "MC1"/"MC2"/"MC3"/"MC4" (CMFB amp) with "MC5"
// (its tail tap), plus the bias chain; passives RCM1/RCM2 (averaging)
// and CCM (CM-loop compensation).  The CM reference is an ideal source
// at the follower-shifted mid-supply level (documented substitution,
// like the cascode gate biases).
#pragma once

#include <optional>

#include "core/spec.h"
#include "netlist/circuit.h"
#include "spice/tran.h"
#include "synth/opamp_design.h"
#include "tech/technology.h"

namespace oasys::synth {

struct FdOtaDesign {
  core::OpAmpSpec spec;   // differential interpretation: gain/GBW/swing
                          // are differential-output quantities per side
  bool feasible = false;

  std::vector<blocks::SizedDevice> devices;
  double rref = 0.0;
  bool ideal_bias_reference = false;
  double iref = 0.0;
  double itail = 0.0;
  double i_sf = 0.0;      // per-follower bias [A]
  double i_cmfb = 0.0;    // CMFB amp tail [A]
  double rcm = 0.0;       // averaging resistor [ohm]
  double ccm = 0.0;       // CM-loop compensation capacitor [F]
  double vcm_ref = 0.0;   // ideal CM reference level [V, absolute]

  core::OpAmpPerformance predicted;  // differential axes
  util::DiagnosticLog log;
  core::ExecutionTrace trace;

  const blocks::SizedDevice* device(const std::string& role) const;
};

FdOtaDesign design_fd_ota(const tech::Technology& t,
                          const core::OpAmpSpec& spec,
                          const SynthOptions& opts = {});

// Netlist ports of a built fully differential OTA.
struct BuiltFdOta {
  ckt::NodeId vdd = ckt::kGround;
  ckt::NodeId vss = ckt::kGround;
  ckt::NodeId inp = ckt::kGround;
  ckt::NodeId inn = ckt::kGround;
  ckt::NodeId outp = ckt::kGround;
  ckt::NodeId outm = ckt::kGround;
};

BuiltFdOta build_fd_ota(const FdOtaDesign& design,
                        const tech::Technology& t, ckt::Circuit& c);

// Open-loop differential fixture of measure_fd_ota: the OTA with supplies,
// anti-phase inputs (AC +-0.5 around the common mode) and the spec load on
// both outputs, plus the AC grid the differential gain, GBW and phase
// margin are read on.
struct FdOtaBench {
  ckt::Circuit circuit;
  BuiltFdOta nodes;
  double vcm = 0.0;   // input common mode [V]
  double fmin = 0.0;  // first grid point: a 30th of the predicted pole [Hz]
  std::vector<double> freqs;  // logspace(fmin, 1 GHz, 101)
};

FdOtaBench fd_ota_bench(const FdOtaDesign& design, const tech::Technology& t);

// Common-mode step fixture of measure_fd_ota: both inputs step 0.2 V
// together from the input common mode, with the spec load on both
// outputs.  `tran` spans thirty time constants of `gbw` (the measured
// differential unity-gain frequency, floored at 100 kHz) with an initial
// step of a 500th of that, its stepping mode left at kDefault.
struct CmStepBench {
  ckt::Circuit circuit;
  BuiltFdOta nodes;
  sim::TranOptions tran;
};

CmStepBench cm_step_bench(const FdOtaDesign& design,
                          const tech::Technology& t, double gbw);

// How far the output common mode ends from where it started under `tran`
// [V]; nullopt when the operating point or the transient fails.
// measure_fd_ota runs it with b.tran and calls the CM loop settled below
// 0.25 V.
std::optional<double> cm_step_drift(const CmStepBench& b,
                                    const tech::Technology& t,
                                    const sim::TranOptions& tran);

// Simulator verification: differential AC response, output common-mode
// accuracy, CM-loop step stability, differential swing.
struct MeasuredFdOta {
  bool ok = false;
  std::string error;
  double gain_db = 0.0;       // differential DC gain
  double gbw = 0.0;           // differential unity-gain frequency [Hz]
  double pm_deg = 0.0;
  double cm_error = 0.0;      // |output CM - mid-supply| at balance [V]
  bool cm_loop_settles = false;  // CM step transient returns and settles
  double swing_pos = 0.0;     // per-side output swing above mid [V]
  double swing_neg = 0.0;
  double cmrr_db = 0.0;       // differential-out rejection of CM drive
};

MeasuredFdOta measure_fd_ota(const FdOtaDesign& design,
                             const tech::Technology& t);

}  // namespace oasys::synth
