// Measurement extraction from analysis results.
//
// These are circuit-agnostic: they turn an AC solution at one node into a
// Bode series and frequency-domain figures of merit (DC gain, unity-gain
// frequency, phase margin, bandwidth), and a transient edge into a slew
// rate.  Op-amp-specific testbench wiring lives in synth/testbench.h.
//
// Two ways to an open-loop response:
//  * the full sweep: ac_analysis over the grid, bode_of_node, loop_metrics
//    (every figure of merit, plus the series itself);
//  * the lazy walk: open_loop_metrics solves only the grid points that DC
//    gain, unity-gain frequency and phase margin read (about 20 of 121),
//    and returns those three bit-identical to the full sweep.
// Both build their series with append_bode_point (one magnitude, fold and
// unwrap rule) and read it with the same crossing arithmetic.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <optional>
#include <string>
#include <vector>

#include "spice/ac.h"
#include "spice/tran.h"

namespace oasys::sim {

// Magnitude (dB) and unwrapped phase (degrees) of one node's phasor across
// the AC sweep.  Phase unwrapping removes +/-360 jumps so the phase-margin
// interpolation is well defined.
struct BodeSeries {
  std::vector<double> freqs;      // Hz
  std::vector<double> gain_db;
  std::vector<double> phase_deg;  // unwrapped
};

BodeSeries bode_of_node(const AcResult& ac, const MnaLayout& layout,
                        ckt::NodeId node);

// Appends the AC point (`f` Hz, probe phasor `v`) to `bode`: gain
// 20 log10|v| (-400 dB for an exact zero) and the phase unwrapped within
// half a turn of the previous point.  The first point of a series instead
// gets the branch-point fold: a phase below -90° is read as lag past +180°,
// so inverting responses always start near +180°.
void append_bode_point(BodeSeries* bode, double f, std::complex<double> v);

// Frequency-domain figures of merit of an open-loop gain response.
struct LoopMetrics {
  double dc_gain_db = 0.0;
  // Frequency where |H| crosses 0 dB; nullopt when gain never reaches 0 dB.
  std::optional<double> unity_gain_freq;
  // 180 + phase at the unity-gain frequency (stability margin).
  std::optional<double> phase_margin_deg;
  // -(gain dB) where phase crosses -180; nullopt if no crossing in range.
  std::optional<double> gain_margin_db;
  // -3 dB bandwidth relative to the DC gain.
  std::optional<double> bandwidth_3db;
};

// `bode` must start at a frequency low enough to represent DC behaviour.
LoopMetrics loop_metrics(const BodeSeries& bode);

// The output an open-loop walk reads: v(pos) - v(neg).  The default neg
// (ground) reads the single node `pos`.
struct AcProbe {
  ckt::NodeId pos = ckt::kGround;
  ckt::NodeId neg = ckt::kGround;
};

// Coarse step of the open-loop walk, in grid points.
inline constexpr std::size_t kOpenLoopStride = 8;

// The grid walk of open_loop_metrics, over any phasor source:
// `phasor_at(i, &v)` sets `v` to the probe phasor at grid point i, or
// returns false, which ends the walk with false.  Builds the compressed
// series into `*bode` (cleared first) and calls phasor_at exactly once per
// grid point it keeps.  Exposed so tests can walk synthetic responses.
template <typename PhasorAt>
bool walk_open_loop_grid(const std::vector<double>& freqs,
                         PhasorAt&& phasor_at, BodeSeries* bode) {
  bode->freqs.clear();
  bode->gain_db.clear();
  bode->phase_deg.clear();
  if (freqs.empty()) return true;
  // The gain steps across 0 dB between the last two points, or touches it.
  auto last_crosses = [bode] {
    const std::size_t k = bode->gain_db.size();
    return bode->gain_db[k - 2] * bode->gain_db[k - 1] <= 0.0;
  };
  std::complex<double> v;
  if (!phasor_at(std::size_t{0}, &v)) return false;
  append_bode_point(bode, freqs[0], v);
  for (std::size_t lo = 0; lo + 1 < freqs.size();) {
    const std::size_t hi = std::min(lo + kOpenLoopStride, freqs.size() - 1);
    std::complex<double> v_hi;
    if (!phasor_at(hi, &v_hi)) return false;
    append_bode_point(bode, freqs[hi], v_hi);
    bool crossed = last_crosses();
    const std::size_t k = bode->phase_deg.size();
    const bool turned =
        std::abs(bode->phase_deg[k - 1] - bode->phase_deg[k - 2]) > 90.0;
    if ((crossed || turned) && hi - lo > 1) {
      // Fill the interval.  `hi` is re-appended last, so every phase is
      // unwrapped against its grid neighbour, as in the full sweep.
      bode->freqs.pop_back();
      bode->gain_db.pop_back();
      bode->phase_deg.pop_back();
      crossed = false;
      for (std::size_t j = lo + 1; j < hi; ++j) {
        if (!phasor_at(j, &v)) return false;
        append_bode_point(bode, freqs[j], v);
        crossed = crossed || last_crosses();
      }
      append_bode_point(bode, freqs[hi], v_hi);
      crossed = crossed || last_crosses();
    }
    if (crossed) return true;
    lo = hi;
  }
  return true;
}

// Per-lane scratch of open_loop_metrics.  Reused across calls (any
// circuit), so a warm walk performs no heap allocation.  Holds no numeric
// state between walks.
struct OpenLoopScratch {
  AcKernel kernel;
  AcPointScratch point;
  std::vector<std::complex<double>> x;
  BodeSeries bode;  // the last walk's compressed series (solved points)
};

struct OpenLoopMetrics {
  bool ok = false;
  std::string error;
  // dc_gain_db, unity_gain_freq and phase_margin_deg.  gain_margin_db and
  // bandwidth_3db are not computed and stay nullopt.
  LoopMetrics metrics;
};

// Lazy open-loop walk over the fixed grid `freqs` (ascending, each > 0):
// DC gain, unity-gain frequency and phase margin of the probe at `op`.
// Solves point 0, then every kOpenLoopStride-th point upward; a coarse
// interval is filled point by point only where it needs it — the gain
// crosses 0 dB there (sign change, or an endpoint exactly at 0 dB), or the
// unwrapped phase turns by more than 90° across it.  The walk stops after
// the interval that holds the first crossing.  The compressed series then
// goes through append_bode_point and loop_metrics' crossing arithmetic.
//
// Exactness contract: every solved point is the same independent kernel
// solve as in ac_analysis, and the crossing and phase interpolation read
// only the two grid points that bracket the crossing, so the three
// figures equal loop_metrics(bode_of_node(ac_analysis(freqs))) bit for
// bit — provided no unfilled coarse interval before the crossing turns the
// phase by 270° or more, or crosses 0 dB twice.  A singular matrix at a
// solved point fails the walk ("singular AC matrix"); points the walk
// skips are not checked.  Counts one sim.ac.sweeps and one sim.ac.points
// per solved point.  A null `scratch` uses a local one.
OpenLoopMetrics open_loop_metrics(const ckt::Circuit& c, const OpResult& op,
                                  const std::vector<double>& freqs,
                                  AcProbe probe,
                                  OpenLoopScratch* scratch = nullptr);

// Maximum |dV/dt| of `node` over the transient, evaluated on the rising
// (positive) or falling (negative) excursion.  Returns nullopt for a
// waveform with < 2 samples.
struct SlewMeasurement {
  double rising = 0.0;   // max positive dV/dt [V/s]
  double falling = 0.0;  // max negative dV/dt magnitude [V/s]
};
std::optional<SlewMeasurement> slew_rate(const TranResult& tran,
                                         const MnaLayout& layout,
                                         ckt::NodeId node);

// Time at which `node` first remains within +/-tolerance of `target` until
// the end of the record (settling time); nullopt if it never settles.
std::optional<double> settling_time(const TranResult& tran,
                                    const MnaLayout& layout, ckt::NodeId node,
                                    double target, double tolerance);

}  // namespace oasys::sim
