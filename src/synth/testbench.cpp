#include "synth/testbench.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>

#include "exec/executor.h"
#include "numeric/interpolate.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "numeric/rootfind.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/sweep.h"
#include "spice/tran.h"
#include "util/units.h"

namespace oasys::synth {

double input_common_mode(const core::OpAmpSpec& spec,
                         const tech::Technology& t) {
  return spec.icmr_lo != 0.0 || spec.icmr_hi != 0.0
             ? 0.5 * (spec.icmr_lo + spec.icmr_hi)
             : t.mid_supply();
}

OpenLoopBench::OpenLoopBench(const OpAmpDesign& d,
                             const tech::Technology& t) {
  nodes = build_opamp(d, t, circuit);
  circuit.add_vsource("VDD", nodes.vdd, ckt::kGround,
                      ckt::Waveform::dc(t.vdd));
  circuit.add_vsource("VSS", nodes.vss, ckt::kGround,
                      ckt::Waveform::dc(t.vss));
  vcm = input_common_mode(d.spec, t);
  circuit.add_vsource("VIP", nodes.inp, ckt::kGround,
                      ckt::Waveform::ac(vcm, 0.5, 0.0));
  circuit.add_vsource("VIN", nodes.inn, ckt::kGround,
                      ckt::Waveform::ac(vcm, 0.5, 180.0));
  if (d.spec.cload > 0.0) {
    circuit.add_capacitor("CL", nodes.out, ckt::kGround, d.spec.cload);
  }
  vip_idx = *circuit.find_vsource("VIP");
  vin_idx = *circuit.find_vsource("VIN");
  vdd_idx = *circuit.find_vsource("VDD");
}

void OpenLoopBench::set_vid(double vid) {
  circuit.vsource(vip_idx).wave =
      circuit.vsource(vip_idx).wave.with_dc(vcm + 0.5 * vid);
  circuit.vsource(vin_idx).wave =
      circuit.vsource(vin_idx).wave.with_dc(vcm - 0.5 * vid);
}

OffsetNull measure_offset(OpenLoopBench* bench, const tech::Technology& t,
                          const std::vector<double>& warm,
                          sim::SimWorkspace* ws, const num::LuPlan* plan) {
  static obs::Counter& nulls =
      obs::Registry::global().counter("sim.offset.nulls");
  static obs::Counter& fallbacks =
      obs::Registry::global().counter("sim.offset.fallbacks");
  nulls.add();
  OBS_SPAN("sim/offset_null");
  const double mid = t.mid_supply();
  OffsetNull null;

  bench->set_vid(0.0);
  sim::SimWorkspace local_ws;
  if (ws == nullptr) ws = &local_ws;
  sim::OpOptions start;
  start.initial_guess = warm;
  num::LuPlan start_plan;  // the vid = 0 solve's, when no plan was given
  if (warm.empty()) {
    const sim::OpResult op =
        sim::dc_operating_point(bench->circuit, t, start, ws, nullptr, plan);
    if (op.converged) {
      start.initial_guess = op.solution;
      if (plan == nullptr) {
        start_plan = ws->lu.plan();
        plan = &start_plan;
      }
    }
  }
  if (!start.initial_guess.empty()) {
    sim::OffsetBorder border;
    border.vpos = bench->vip_idx;
    border.vneg = bench->vin_idx;
    border.out = bench->nodes.out;
    border.target = mid;
    null.op =
        sim::dc_operating_point(bench->circuit, t, start, ws, &border, plan);
    if (null.op.converged) {
      bench->set_vid(border.vid);
      null.vid = border.vid;
      null.ok = true;
      return null;
    }
  }

  // Fallback: bracket the null and bisect it, each probe a DC solve
  // warm-started from the previous one.
  fallbacks.add();
  const sim::MnaLayout layout(bench->circuit);
  std::vector<double> probe_warm = start.initial_guess;
  auto solve_at = [&](double vid) {
    bench->set_vid(vid);
    sim::OpOptions o;
    o.initial_guess = probe_warm;
    sim::OpResult op =
        sim::dc_operating_point(bench->circuit, t, o, ws, nullptr, plan);
    if (op.converged) probe_warm = op.solution;
    return op;
  };
  auto out_error = [&](double vid) {
    const sim::OpResult op = solve_at(vid);
    if (!op.converged) return std::nan("");
    return op.voltage(layout, bench->nodes.out) - mid;
  };
  const auto bracket = num::bracket_root(out_error, -0.05, 0.05, 8);
  if (!bracket) {
    null.error = "could not bracket the output null (offset search)";
    return null;
  }
  num::RootOptions root_opts;
  root_opts.xtol = 1e-9;
  const auto vid =
      num::bisect(out_error, bracket->first, bracket->second, root_opts);
  if (!vid) {
    null.error = "offset bisection failed";
    return null;
  }
  null.op = solve_at(*vid);
  if (!null.op.converged) {
    null.error = "operating point at the offset null did not converge";
    return null;
  }
  null.vid = *vid;
  null.ok = true;
  return null;
}

double open_loop_fmin(const OpAmpDesign& d, const MeasureOptions& opts) {
  double fmin = opts.ac_fmin;
  if (d.predicted.gain_db > 0.0 && d.predicted.gbw > 0.0) {
    const double pole_est =
        d.predicted.gbw / util::from_db20(d.predicted.gain_db);
    fmin = std::min(fmin, std::max(pole_est / 30.0, 1e-4));
  }
  return fmin;
}

std::vector<double> open_loop_freqs(const OpAmpDesign& d,
                                    const MeasureOptions& opts) {
  return num::logspace(open_loop_fmin(d, opts), opts.ac_fmax,
                       opts.ac_points);
}

namespace {

// The op-amp as a unity-gain follower in `c`: supplies, the spec load, and
// the inverting input wired straight to the output.  The slew step and the
// ICMR sweep drive its non-inverting input.
BuiltOpAmp build_follower(const OpAmpDesign& d, const tech::Technology& t,
                          ckt::Circuit& c) {
  const BuiltOpAmp fn = build_opamp(d, t, c, c.node("out"));
  c.add_vsource("VDD", fn.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
  c.add_vsource("VSS", fn.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
  if (d.spec.cload > 0.0) {
    c.add_capacitor("CL", fn.out, ckt::kGround, d.spec.cload);
  }
  return fn;
}

}  // namespace

SlewBench slew_bench(const OpAmpDesign& d, const tech::Technology& t,
                     double gbw, const MeasureOptions& opts) {
  SlewBench sb;
  const BuiltOpAmp fn = build_follower(d, t, sb.circuit);
  sb.out = fn.out;
  const double slew_target = std::max(d.spec.slew_min, util::v_per_us(0.1));
  const double t_edge = opts.step_amplitude / slew_target;
  const double t_settle = gbw > 0.0 ? 10.0 / gbw : t_edge;
  const double t_half = 3.0 * t_edge + 3.0 * t_settle;
  const double dt = t_half / 600.0;
  const double vcm = input_common_mode(d.spec, t);
  sb.circuit.add_vsource(
      "VSTEP", fn.inp, ckt::kGround,
      ckt::Waveform::pulse(vcm - 0.5 * opts.step_amplitude,
                           vcm + 0.5 * opts.step_amplitude, 2.0 * dt, dt, dt,
                           t_half, 2.0 * t_half));
  sb.tran.tstop = 2.0 * t_half;
  sb.tran.dt = dt;
  return sb;
}

std::optional<double> follower_slew(const SlewBench& sb,
                                    const tech::Technology& t,
                                    const sim::TranOptions& tran) {
  const sim::OpResult op = sim::dc_operating_point(sb.circuit, t);
  if (!op.converged) return std::nullopt;
  const sim::TranResult tr = sim::transient(sb.circuit, t, op, tran);
  if (!tr.ok) return std::nullopt;
  const auto slew = sim::slew_rate(tr, sim::MnaLayout(sb.circuit), sb.out);
  if (!slew) return std::nullopt;
  return std::min(slew->rising, slew->falling);
}

MeasuredOpAmp measure_opamp(const OpAmpDesign& design,
                            const tech::Technology& t,
                            const MeasureOptions& opts) {
  static obs::Counter& measurements =
      obs::Registry::global().counter("synth.measurements");
  measurements.add();
  OBS_SPAN("synth/measure_opamp");
  MeasuredOpAmp m;
  OpenLoopBench bench(design, t);
  sim::MnaLayout layout(bench.circuit);
  const double mid = t.mid_supply();

  // --- systematic offset and the operating point at the null ---------------
  // Every open-loop DC solve shares one Jacobian pattern: the null's LU
  // plan, left in `ws`, is handed on to the swing solves below.
  sim::SimWorkspace ws;
  const OffsetNull null = measure_offset(&bench, t, {}, &ws);
  if (!null.ok) {
    m.error = null.error;
    return m;
  }
  const sim::OpResult& op = null.op;
  m.offset_applied = null.vid;
  m.perf.offset = std::abs(null.vid);
  m.perf.power = sim::supply_power(bench.circuit, layout, op);
  for (std::size_t k = 0; k < bench.circuit.mosfets().size(); ++k) {
    if (op.devices[k].region != mos::Region::kSaturation) {
      m.non_saturated.push_back(bench.circuit.mosfets()[k].name);
    }
  }

  // --- differential AC: gain, GBW, PM, Bode -----------------------------------
  // One reduced pencil at the null serves the sweep, CMRR, PSRR and noise.
  sim::AcKernel kernel;
  if (const char* error = kernel.assemble(bench.circuit, op)) {
    m.error = std::string("AC analysis failed: ") + error;
    return m;
  }
  const double fmin = open_loop_fmin(design, opts);
  const sim::AcResult ac =
      sim::ac_analysis(kernel, open_loop_freqs(design, opts), opts.jobs);
  if (!ac.ok) {
    m.error = "AC analysis failed: " + ac.error;
    return m;
  }
  m.bode = sim::bode_of_node(ac, layout, bench.nodes.out);
  const sim::LoopMetrics lm = sim::loop_metrics(m.bode);
  m.perf.gain_db = lm.dc_gain_db;
  m.perf.gbw = lm.unity_gain_freq.value_or(0.0);
  m.perf.pm_deg = lm.phase_margin_deg.value_or(0.0);

  // --- noise: output spectrum referred to the input ---------------------------
  if (opts.measure_noise && m.perf.gbw > 0.0) {
    const double f_lo = std::max(1e3, m.perf.gbw * 1e-3);
    const double f_hi = m.perf.gbw;
    m.noise = sim::noise_analysis(
        kernel, bench.circuit, t, op, bench.nodes.out,
        num::logspace(f_lo, f_hi, opts.noise_points));
    if (m.noise.ok) {
      m.input_noise_density.resize(m.noise.freqs.size());
      for (std::size_t i = 0; i < m.noise.freqs.size(); ++i) {
        const double gain_db = num::interp_semilogx(
            m.bode.freqs, m.bode.gain_db, m.noise.freqs[i]);
        const double h = util::from_db20(gain_db);
        m.input_noise_density[i] =
            std::sqrt(m.noise.output_psd[i]) / std::max(h, 1e-12);
      }
      // White-region reference: a third of the unity-gain frequency.
      m.perf.noise_in = num::interp_semilogx(
          m.noise.freqs, m.input_noise_density, 0.3 * m.perf.gbw);
    }
  }

  // --- CMRR and PSRR: unit sources in phase on both inputs, and on VDD -------
  // One adjoint row at fmin reads the output's response to any excitation:
  // a unit AC voltage on source k adds u[branch k] to the output phasor.
  {
    std::vector<std::complex<double>> u;
    sim::AcPointScratch ws;
    const auto out = static_cast<std::size_t>(
        layout.node_index(bench.nodes.out));
    if (kernel.transfer_row(fmin, out, &ws, &u)) {
      const double acm = std::abs(u[layout.branch_index(bench.vip_idx)] +
                                  u[layout.branch_index(bench.vin_idx)]);
      if (acm > 0.0) m.perf.cmrr_db = m.perf.gain_db - util::db20(acm);
      const double avdd = std::abs(u[layout.branch_index(bench.vdd_idx)]);
      if (avdd > 0.0) m.perf.psrr_db = m.perf.gain_db - util::db20(avdd);
    }
  }

  // --- output swing: large differential overdrive --------------------------------
  {
    sim::OpOptions o;
    o.initial_guess = op.solution;
    const num::LuPlan null_plan = ws.lu.plan();
    bench.set_vid(null.vid + opts.swing_overdrive);
    const sim::OpResult hi =
        sim::dc_operating_point(bench.circuit, t, o, &ws, nullptr, &null_plan);
    bench.set_vid(null.vid - opts.swing_overdrive);
    const sim::OpResult lo =
        sim::dc_operating_point(bench.circuit, t, o, &ws, nullptr, &null_plan);
    if (hi.converged) {
      m.perf.swing_pos = hi.voltage(layout, bench.nodes.out) - mid;
    }
    if (lo.converged) {
      m.perf.swing_neg = mid - lo.voltage(layout, bench.nodes.out);
    }
    bench.set_vid(null.vid);
  }

  // --- slew: follower step ---------------------------------------------------
  if (opts.measure_slew) {
    const SlewBench sb = slew_bench(design, t, m.perf.gbw, opts);
    if (const auto slew = follower_slew(sb, t, sb.tran)) m.perf.slew = *slew;
  }

  // --- ICMR: follower DC sweep -------------------------------------------------
  if (opts.measure_icmr) {
    ckt::Circuit ic;
    const BuiltOpAmp in = build_follower(design, t, ic);
    ic.add_vsource("VCM", in.inp, ckt::kGround,
                   ckt::Waveform::dc(bench.vcm));
    const sim::MnaLayout ilayout(ic);
    const std::vector<double> points = num::linspace(
        t.vss + 0.3, t.vdd - 0.3, opts.icmr_points);
    const sim::DcSweepResult sweep =
        sim::dc_sweep_vsource(ic, t, "VCM", points);
    if (sweep.ok) {
      const std::vector<double> vout =
          sweep.node_voltages(ilayout, in.out);
      // Widest contiguous tracking window containing the mid common mode.
      double lo = bench.vcm, hi = bench.vcm;
      std::size_t mid_idx = 0;
      double best = 1e9;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (std::abs(points[i] - bench.vcm) < best) {
          best = std::abs(points[i] - bench.vcm);
          mid_idx = i;
        }
      }
      auto tracks = [&](std::size_t i) {
        return std::abs(vout[i] - points[i]) < opts.icmr_track_tol;
      };
      if (tracks(mid_idx)) {
        std::size_t i = mid_idx;
        while (i > 0 && tracks(i - 1)) --i;
        lo = points[i];
        i = mid_idx;
        while (i + 1 < points.size() && tracks(i + 1)) ++i;
        hi = points[i];
      }
      m.perf.icmr_lo = lo;
      m.perf.icmr_hi = hi;
    }
  }

  m.perf.area = design.predicted.area;  // area is a layout estimate
  m.ok = true;
  return m;
}

std::vector<MeasuredOpAmp> measure_across_corners(
    const OpAmpDesign& design, const tech::Technology& nominal,
    const std::vector<tech::Corner>& corners, const MeasureOptions& opts,
    std::size_t jobs) {
  std::vector<MeasuredOpAmp> out(corners.size());
  exec::parallel_for(
      corners.size(),
      [&](std::size_t i) {
        const tech::Technology ct = tech::at_corner(nominal, corners[i]);
        // Nested AC fan-out inside measure_opamp runs inline on this lane.
        out[i] = measure_opamp(design, ct, opts);
      },
      jobs);
  return out;
}

}  // namespace oasys::synth
