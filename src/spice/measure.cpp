#include "spice/measure.h"

#include <cmath>

#include "numeric/interpolate.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/units.h"

namespace oasys::sim {

BodeSeries bode_of_node(const AcResult& ac, const MnaLayout& layout,
                        ckt::NodeId node) {
  BodeSeries out;
  out.freqs.reserve(ac.freqs.size());
  out.gain_db.reserve(ac.freqs.size());
  out.phase_deg.reserve(ac.freqs.size());
  for (std::size_t i = 0; i < ac.freqs.size(); ++i) {
    append_bode_point(&out, ac.freqs[i], ac.voltage(layout, i, node));
  }
  return out;
}

void append_bode_point(BodeSeries* bode, double f, std::complex<double> v) {
  const double mag = std::abs(v);
  double phase = util::deg(std::arg(v));
  if (bode->phase_deg.empty()) {
    // The principal value is ambiguous at the ±180° branch point: for an
    // inverting response the first sample sits at ±180° minus a little
    // lag, and rounding in the imaginary part decides which sign comes
    // back.  Seeding the unwrap from the raw value would then flip the
    // entire series by 360° run-to-run.  Fold the seed relative to the
    // DC reference: a first sample below −90° is re-read as lag past
    // +180° (a response cannot *lead* by more than a quarter turn at its
    // lowest sampled frequency), so inverting responses always start
    // near +180°.
    if (phase < -90.0) phase += 360.0;
  } else {
    // Unwrap: keep each step within half a turn of the previous sample.
    const double prev_phase = bode->phase_deg.back();
    while (phase - prev_phase > 180.0) phase -= 360.0;
    while (phase - prev_phase < -180.0) phase += 360.0;
  }
  bode->freqs.push_back(f);
  bode->gain_db.push_back(mag > 0.0 ? util::db20(mag) : -400.0);
  bode->phase_deg.push_back(phase);
}

namespace {

// DC gain, unity-gain frequency and phase margin: the part of
// loop_metrics the open-loop walk shares.  Allocation-free.
LoopMetrics crossing_metrics(const BodeSeries& bode) {
  LoopMetrics m;
  if (bode.freqs.empty()) return m;
  m.dc_gain_db = bode.gain_db.front();

  m.unity_gain_freq = num::first_crossing(bode.freqs, bode.gain_db, 0.0);
  if (m.unity_gain_freq) {
    const double phase_at_ugf =
        num::interp_semilogx(bode.freqs, bode.phase_deg, *m.unity_gain_freq);
    // The phase series is referenced to the low-frequency phase; a
    // non-inverting response starts near 0 degrees and the margin is the
    // distance of the accumulated phase lag from 180 degrees.
    const double phase_rel = phase_at_ugf - bode.phase_deg.front();
    m.phase_margin_deg = 180.0 + phase_rel;
  }
  return m;
}

}  // namespace

LoopMetrics loop_metrics(const BodeSeries& bode) {
  LoopMetrics m = crossing_metrics(bode);
  if (bode.freqs.empty()) return m;

  // Gain margin: gain (dB) where accumulated phase lag reaches 180 degrees.
  {
    std::vector<double> lag(bode.phase_deg.size());
    for (std::size_t i = 0; i < lag.size(); ++i) {
      lag[i] = bode.phase_deg.front() - bode.phase_deg[i];
    }
    const auto f180 = num::first_crossing(bode.freqs, lag, 180.0);
    if (f180) {
      const double g = num::interp_semilogx(bode.freqs, bode.gain_db, *f180);
      m.gain_margin_db = -g;
    }
  }

  const auto f3db =
      num::first_crossing(bode.freqs, bode.gain_db, m.dc_gain_db - 3.0);
  if (f3db) m.bandwidth_3db = f3db;
  return m;
}

OpenLoopMetrics open_loop_metrics(const ckt::Circuit& c, const OpResult& op,
                                  const std::vector<double>& freqs,
                                  AcProbe probe, OpenLoopScratch* scratch) {
  static obs::Counter& sweeps =
      obs::Registry::global().counter("sim.ac.sweeps");
  static obs::Counter& points =
      obs::Registry::global().counter("sim.ac.points");
  sweeps.add();
  OBS_SPAN("sim/open_loop_walk");
  OpenLoopMetrics out;
  for (const double f : freqs) {
    if (!(f > 0.0)) {
      out.error = "AC frequency must be positive";
      return out;
    }
  }
  OpenLoopScratch local;
  OpenLoopScratch& s = scratch != nullptr ? *scratch : local;
  if (const char* error = s.kernel.assemble(c, op)) {
    out.error = error;
    return out;
  }
  const MnaLayout& layout = s.kernel.layout();
  std::size_t solved = 0;
  const bool ok = walk_open_loop_grid(
      freqs,
      [&](std::size_t i, std::complex<double>* v) {
        ++solved;
        if (!s.kernel.solve(freqs[i], &s.point, &s.x)) return false;
        *v = layout.voltage(s.x, probe.pos) - layout.voltage(s.x, probe.neg);
        return true;
      },
      &s.bode);
  points.add(solved);
  if (!ok) {
    out.error = "singular AC matrix";
    return out;
  }
  out.metrics = crossing_metrics(s.bode);
  out.ok = true;
  return out;
}

std::optional<SlewMeasurement> slew_rate(const TranResult& tran,
                                         const MnaLayout& layout,
                                         ckt::NodeId node) {
  if (tran.time.size() < 2) return std::nullopt;
  const std::vector<double> v = tran.node_waveform(layout, node);
  SlewMeasurement s;
  for (std::size_t i = 1; i < v.size(); ++i) {
    const double h = tran.time[i] - tran.time[i - 1];
    if (h <= 0.0) continue;
    const double d = (v[i] - v[i - 1]) / h;
    if (d > s.rising) s.rising = d;
    if (-d > s.falling) s.falling = -d;
  }
  return s;
}

std::optional<double> settling_time(const TranResult& tran,
                                    const MnaLayout& layout, ckt::NodeId node,
                                    double target, double tolerance) {
  if (tran.time.empty()) return std::nullopt;
  const std::vector<double> v = tran.node_waveform(layout, node);
  // Scan backwards for the last sample outside the band.
  std::size_t last_outside = v.size();  // sentinel: all inside
  for (std::size_t i = v.size(); i-- > 0;) {
    if (std::abs(v[i] - target) > tolerance) {
      last_outside = i;
      break;
    }
  }
  if (last_outside == v.size()) return tran.time.front();
  if (last_outside + 1 >= v.size()) return std::nullopt;  // never settles
  return tran.time[last_outside + 1];
}

}  // namespace oasys::sim
