// Op-amp verification testbench: closes a synthesized design through the
// circuit simulator and measures the same performance axes the spec
// constrains.  This replaces the paper's external SPICE runs (Table 2
// right-hand columns, Figure 6).
//
// Measurements performed:
//  * systematic input offset — the differential input that puts the
//    output at mid-supply (open loop, DC; see measure_offset);
//  * open-loop AC response at the offset-nulled bias — DC gain, unity-gain
//    frequency (GBW), phase margin, -3 dB bandwidth, full Bode series;
//  * CMRR and PSRR — the output's response to unit sources in phase on
//    both inputs and on VDD, read from one adjoint row at the lowest grid
//    frequency (sim::AcKernel::transfer_row);
//  * output swing — DC solutions at large differential overdrive;
//  * slew rate — unity-gain follower driven with a voltage step;
//  * ICMR — unity-gain follower DC sweep, tracking-error window;
//  * quiescent power and per-device saturation check at the operating
//    point.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/spec.h"
#include "spice/dc.h"
#include "spice/measure.h"
#include "spice/noise.h"
#include "spice/tran.h"
#include "spice/workspace.h"
#include "synth/netlist_builder.h"
#include "synth/opamp_design.h"
#include "tech/builtin.h"

namespace oasys::synth {

struct MeasureOptions {
  double ac_fmin = 1.0;        // Hz
  double ac_fmax = 1e9;        // Hz
  std::size_t ac_points = 121;
  double swing_overdrive = 0.5;    // differential drive for swing [V]
  double icmr_track_tol = 0.1;     // follower tracking error window [V]
  std::size_t icmr_points = 41;
  double step_amplitude = 1.0;     // follower step for slew [V]
  bool measure_slew = true;        // transient run is the slow part
  bool measure_icmr = true;
  bool measure_noise = true;
  std::size_t noise_points = 25;
  // Threads for the AC frequency fan-out (0 = exec::default_jobs(),
  // 1 = serial).  Measured numbers are identical at every setting.
  std::size_t jobs = 0;
};

// The open-loop AC grid that verification and yield read gain, GBW and
// phase margin on.  The sweep must start a decade-plus below the dominant
// pole, or the "DC" gain sample and the phase reference are already
// rolling off: open_loop_fmin is opts.ac_fmin, pulled down to a 30th of
// the pole the design predicts (gbw / gain), floored at 1e-4 Hz.
double open_loop_fmin(const OpAmpDesign& d, const MeasureOptions& opts = {});
// logspace(open_loop_fmin, opts.ac_fmax, opts.ac_points).
std::vector<double> open_loop_freqs(const OpAmpDesign& d,
                                    const MeasureOptions& opts = {});

struct MeasuredOpAmp {
  bool ok = false;
  std::string error;

  core::OpAmpPerformance perf;     // measured values
  sim::BodeSeries bode;            // open-loop differential response
  sim::NoiseResult noise;          // output-referred noise spectrum
  // Input-referred noise density series (output PSD over |H|^2) [V/rtHz].
  std::vector<double> input_noise_density;
  double offset_applied = 0.0;     // differential bias used for AC [V]
  // Devices not in saturation at the nulled operating point (mirrors and
  // diodes are expected to saturate; anything here deserves a look).
  std::vector<std::string> non_saturated;
};

// The input common mode the verification fixtures bias at: the midpoint
// of the spec's ICMR, or mid-supply when the spec leaves the ICMR open.
double input_common_mode(const core::OpAmpSpec& spec,
                         const tech::Technology& t);

// Open-loop measurement fixture, shared by verification, mismatch and
// yield: supplies, differential input sources VIP/VIN around the spec's
// common-mode midpoint (AC +-0.5 each, for the differential sweep), and
// the spec load.
struct OpenLoopBench {
  ckt::Circuit circuit;
  BuiltOpAmp nodes;
  std::size_t vip_idx = 0;
  std::size_t vin_idx = 0;
  std::size_t vdd_idx = 0;
  double vcm = 0.0;

  OpenLoopBench() = default;  // hand-built fixtures fill the fields
  OpenLoopBench(const OpAmpDesign& d, const tech::Technology& t);

  // Drives VIP/VIN to vcm +- vid/2.
  void set_vid(double vid);
};

// Input-offset null of an open-loop bench.
struct OffsetNull {
  bool ok = false;
  std::string error;
  double vid = 0.0;  // differential input that centres the output [V]
  sim::OpResult op;  // converged operating point at the null
};

// Finds the differential input that puts the bench output at mid-supply,
// with one bordered Newton solve (sim::OffsetBorder) from `warm`, a
// solution of the bench at vid = 0.  With no `warm`, an ordinary
// dc_operating_point at vid = 0 (with its homotopies) supplies the start.
// When the bordered solve fails — a singular factor, an output that does
// not respond to vid, or the iteration cap — the null is bracketed and
// bisected to 1e-9 V instead, one warm DC solve per probe.  Leaves the
// bench driven at the null.  Counts every call in sim.offset.nulls and
// every fallback in sim.offset.fallbacks.  Every DC solve starts from
// `plan` (a Newton LU plan for this bench's pattern) when one is given;
// otherwise the vid = 0 solve plans and hands its plan on to the rest.
// The plan the last solve ended with is left in `ws` when one is given.
OffsetNull measure_offset(OpenLoopBench* bench, const tech::Technology& t,
                          const std::vector<double>& warm = {},
                          sim::SimWorkspace* ws = nullptr,
                          const num::LuPlan* plan = nullptr);

// Slew fixture: the op-amp as a unity-gain follower with the spec load,
// its input a pulse of opts.step_amplitude about the input common mode.
// One half period covers three slew-limited edges at the spec's slew (at
// least 0.1 V/us) plus thirty time constants of `gbw` (the measured
// unity-gain frequency; 0 when unknown).  `tran` carries that window and
// the initial step, t_half/600, with the stepping mode left at kDefault.
struct SlewBench {
  ckt::Circuit circuit;
  ckt::NodeId out = ckt::kGround;
  sim::TranOptions tran;
};
SlewBench slew_bench(const OpAmpDesign& d, const tech::Technology& t,
                     double gbw, const MeasureOptions& opts = {});

// min(rising, falling) slew rate of the fixture's output under `tran`;
// nullopt when the operating point or the transient fails.  measure_opamp
// runs it with sb.tran.
std::optional<double> follower_slew(const SlewBench& sb,
                                    const tech::Technology& t,
                                    const sim::TranOptions& tran);

MeasuredOpAmp measure_opamp(const OpAmpDesign& design,
                            const tech::Technology& t,
                            const MeasureOptions& opts = {});

// Corner enumeration: re-measures one sized design with the device
// parameters derated to each corner.  Corners are independent full
// measurement runs, so they distribute over up to `jobs` threads
// (0 = exec::default_jobs()); out[i] is exactly what a serial
// measure_opamp at corners[i] returns.
std::vector<MeasuredOpAmp> measure_across_corners(
    const OpAmpDesign& design, const tech::Technology& nominal,
    const std::vector<tech::Corner>& corners, const MeasureOptions& opts = {},
    std::size_t jobs = 0);

}  // namespace oasys::synth
