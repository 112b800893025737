#include "synth/comparator.h"

#include <algorithm>
#include <cmath>

#include "spice/measure.h"
#include "spice/tran.h"
#include "synth/designer_common.h"
#include "synth/netlist_builder.h"
#include "util/text.h"

namespace oasys::synth {

using util::format;

util::DiagnosticLog ComparatorSpec::validate() const {
  util::DiagnosticLog log;
  if (!(resolution > 0.0)) {
    log.error("spec-invalid", "resolution must be positive");
  }
  if (!(tprop_max > 0.0)) {
    log.error("spec-invalid", "tprop_max must be positive");
  }
  if (!(cload > 0.0)) {
    log.error("spec-invalid", "cload must be positive");
  }
  if (!(out_high > out_low)) {
    log.error("spec-invalid", "out_high must exceed out_low");
  }
  if (icmr_hi < icmr_lo) {
    log.error("spec-invalid", "icmr_hi must be >= icmr_lo");
  }
  return log;
}

std::string ComparatorSpec::to_string() const {
  std::ostringstream os;
  os << "comparator spec " << (name.empty() ? "(unnamed)" : name) << ":\n";
  os << format("  resolution <= %.1f mV\n", util::in_mv(resolution));
  os << format("  tprop      <= %.3g us\n", tprop_max / util::kMicro);
  os << format("  CL          = %.3g pF\n", util::in_pf(cload));
  os << format("  levels      = [%.2f, %.2f] V\n", out_low, out_high);
  os << format("  ICMR        = [%.2f, %.2f] V\n", icmr_lo, icmr_hi);
  if (power_max > 0.0) {
    os << format("  power      <= %.3g mW\n", util::in_mw(power_max));
  }
  return os.str();
}

namespace {

using internal::OpAmpContext;

// Comparator plan context: the op-amp context plus the comparator spec.
struct ComparatorContext : OpAmpContext {
  ComparatorContext(const tech::Technology& t, const ComparatorSpec& cs,
                    const SynthOptions& o)
      : OpAmpContext(t, make_amp_spec(cs, t), o), cspec(cs) {}

  // The sub-block designers speak op-amp spec axes; the comparator plan
  // translates its own axes into them.
  static core::OpAmpSpec make_amp_spec(const ComparatorSpec& cs,
                                       const tech::Technology& t) {
    core::OpAmpSpec s;
    s.name = cs.name;
    s.cload = cs.cload;
    s.icmr_lo = cs.icmr_lo;
    s.icmr_hi = cs.icmr_hi;
    s.power_max = cs.power_max;
    s.swing_pos = cs.out_high - t.mid_supply();
    s.swing_neg = t.mid_supply() - cs.out_low;
    return s;
  }

  ComparatorSpec cspec;
  ComparatorDesign result;
};

core::Plan<ComparatorContext> build_comparator_plan() {
  core::Plan<ComparatorContext> plan("comparator");

  plan.add_step("derive-targets", [](ComparatorContext& ctx) {
    const auto& cs = ctx.cspec;
    // Gain must turn the resolution overdrive into the full logic swing
    // with margin.
    const double swing = cs.out_high - cs.out_low;
    const double gain_margin = ctx.get_or("gain_margin", 1.5);
    ctx.set("av_req", gain_margin * swing / cs.resolution);
    // Delay budget split: slewing the load, then linear regeneration.
    ctx.set("t_slew", 0.5 * cs.tprop_max);
    ctx.set("t_linear", 0.4 * cs.tprop_max);
    ctx.out.style = OpAmpStyle::kOneStageOta;
    return core::StepStatus::success();
  });

  plan.add_step("tail-current", [](ComparatorContext& ctx) {
    // Slew half the swing within the slew budget.
    const auto& cs = ctx.cspec;
    const double dv = 0.5 * (cs.out_high - cs.out_low);
    const double itail = std::max(cs.cload * dv / ctx.get("t_slew"),
                                  util::ua(2.0));
    ctx.set("itail", itail);
    return core::StepStatus::success();
  });

  plan.add_step("input-gm", [](ComparatorContext& ctx) {
    // Linear regeneration: with a single pole at 1/(Rout CL) the output
    // heads for Av*vin = m*swing; reaching half the swing takes
    // tau * ln(2m/(2m-1)).  Bound tau from the delay budget, then
    // gm = Av/Rout.
    const double m = ctx.get_or("gain_margin", 1.5);
    const double tau_max =
        ctx.get("t_linear") / std::log(2.0 * m / (2.0 * m - 1.0));
    const double rout_max = tau_max / ctx.cspec.cload;
    ctx.set("rout_max", rout_max);
    double gm1 = ctx.get("av_req") / rout_max;
    gm1 = std::max(gm1, ctx.get("itail") / 0.6);
    ctx.set("gm1", gm1);
    const double vov1 = ctx.get("itail") / gm1;
    if (vov1 < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "vov1-floor", format("pair overdrive %.0f mV below floor",
                               util::in_mv(vov1)));
    }
    ctx.set("vov1", vov1);
    return core::StepStatus::success();
  });

  plan.add_step("gain-length", [](ComparatorContext& ctx) {
    const auto& t = ctx.technology();
    const double id1 = ctx.get("itail") / 2.0;
    if (!ctx.out.stage1_cascode) {
      // Choose L so Rout lands near (not above) rout_max with the needed
      // gain: lambda_tot = 1/(rout * id1).
      const double rout_needed = ctx.get("av_req") / ctx.get("gm1");
      const double lambda_tot = 1.0 / (rout_needed * id1);
      double l = std::max((t.nmos.lambda_l + t.pmos.lambda_l) / lambda_tot,
                          t.lmin);
      if (l > blocks::max_length(t)) {
        return core::StepStatus::fail(
            "gain-shortfall",
            format("resolution %.1f mV needs L = %.1f um > limit",
                   util::in_mv(ctx.cspec.resolution), util::in_um(l)));
      }
      ctx.set("l1", l);
    } else {
      // Telescopic: verify the cascode equations reach the gain, and that
      // the output-high level clears the cascoded load's compliance.
      const double l = t.lmin;
      const double vov1 = ctx.get("vov1");
      const double gm_c = mos::gm_from_id_vov(id1, vov1);
      const double ro_n = mos::rout_sat(t.nmos.lambda_at(l), id1);
      const double r_down = mos::rout_cascode(gm_c, ro_n, ro_n);
      const double ro_p = mos::rout_sat(t.pmos.lambda_at(l), id1);
      const double gm_cp = mos::gm_from_id_vov(id1, 0.25);
      const double r_up = mos::rout_cascode(gm_cp, ro_p, ro_p);
      const double av = ctx.get("gm1") * mos::parallel(r_up, r_down);
      if (av < ctx.get("av_req")) {
        return core::StepStatus::fail(
            "gain-unreachable",
            format("cascoded comparator reaches %.1f dB < required %.1f dB",
                   util::db20(av), util::db20(ctx.get("av_req"))));
      }
      const double load_compliance =
          t.pmos.vt0 + 2.0 * blocks::kMinOverdrive;
      if (ctx.vdd() - load_compliance < ctx.cspec.out_high) {
        return core::StepStatus::fail(
            "gain-unreachable",
            "cascoded load cannot reach the required output-high level");
      }
      ctx.set("l1", l);
    }
    return core::StepStatus::success();
  });

  plan.add_step("design-pair", [](ComparatorContext& ctx) {
    blocks::DiffPairSpec ps;
    ps.type = mos::MosType::kNmos;
    ps.gm = ctx.get("gm1");
    ps.itail = ctx.get("itail");
    ps.l = ctx.get("l1");
    ps.style = ctx.out.stage1_cascode ? blocks::DiffPairStyle::kCascode
                                      : blocks::DiffPairStyle::kSimple;
    const double vgs1 = internal::input_pair_vgs(
        ctx.technology(), ctx.get("vov1"), ctx.icmr_mid());
    ctx.set("vgs1", vgs1);
    ps.vsb = ctx.icmr_mid() - vgs1 - ctx.vss();
    ctx.pair = blocks::design_diff_pair(ctx.technology(), ps);
    if (!ctx.pair.feasible) {
      return core::StepStatus::fail("pair-infeasible",
                                    ctx.pair.log.to_string());
    }
    return core::StepStatus::success();
  });

  plan.add_step("design-load-mirror", [](ComparatorContext& ctx) {
    const double id1 = ctx.get("itail") / 2.0;
    blocks::CurrentMirrorSpec ms;
    ms.role_prefix = "ML";
    ms.type = mos::MosType::kPmos;
    ms.iin = id1;
    ms.iout = id1;
    ms.rout_min = ctx.out.stage1_cascode
                      ? 0.0  // verified jointly in gain-length
                      : 2.0 * ctx.get("av_req") / ctx.get("gm1");
    ms.compliance_max = ctx.vdd() - ctx.cspec.out_high;
    ms.vds_out_nominal = ctx.vdd() - ctx.mid();
    ctx.load = blocks::design_mirror_style(
        ctx.technology(), ms,
        ctx.out.stage1_cascode ? blocks::MirrorStyle::kCascode
                               : blocks::MirrorStyle::kSimple);
    if (!ctx.load.feasible) {
      return core::StepStatus::fail("load-infeasible",
                                    ctx.load.log.to_string());
    }
    return core::StepStatus::success();
  });

  plan.add_step("levels-check", [](ComparatorContext& ctx) {
    // Output-high: the mirror was designed inside the compliance budget.
    // Output-low: the pair (or its cascode) leaves saturation one VT below
    // the input common mode, so the binding case is the TOP of the ICMR —
    // a trip point there must still pull the output to the low level.
    const double vgs1_hi = internal::input_pair_vgs(
        ctx.technology(), ctx.get("vov1"), ctx.icmr_hi());
    const double vt1_hi = vgs1_hi - ctx.get("vov1");
    double out_low_limit = ctx.icmr_hi() - vt1_hi;
    if (ctx.out.stage1_cascode) {
      out_low_limit = ctx.icmr_hi() - vgs1_hi +
                      2.0 * ctx.get("vov1") + blocks::kMinOverdrive;
    }
    ctx.set("out_low_limit", out_low_limit);
    if (out_low_limit > ctx.cspec.out_low) {
      return core::StepStatus::fail(
          "swing-low",
          format("output-low limit %.2f V misses the required %.2f V",
                 out_low_limit, ctx.cspec.out_low));
    }
    return core::StepStatus::success();
  });

  plan.add_step("offset-vs-resolution", [](ComparatorContext& ctx) {
    // The systematic offset eats directly into the resolution budget.
    const double id1 = ctx.get("itail") / 2.0;
    const double offset =
        std::abs(ctx.load.current_error_frac) * id1 / ctx.get("gm1");
    ctx.set("offset_pred", offset);
    if (offset > 0.5 * ctx.cspec.resolution) {
      return core::StepStatus::fail(
          "offset-vs-resolution",
          format("systematic offset %.2f mV eats the %.1f mV resolution",
                 util::in_mv(offset), util::in_mv(ctx.cspec.resolution)));
    }
    return core::StepStatus::success();
  });

  plan.add_step("design-bias", [](ComparatorContext& ctx) {
    blocks::BiasChainSpec bs;
    bs.style = ctx.opts.bias_style;
    bs.iref = std::clamp(ctx.get("itail"), util::ua(5.0), ctx.opts.iref);
    blocks::BiasTap tail;
    tail.role = "M5";
    tail.type = mos::MosType::kNmos;
    tail.iout = ctx.get("itail");
    tail.compliance_max =
        ctx.icmr_constrained()
            ? ctx.icmr_lo() - ctx.vss() - ctx.get("vgs1")
            : 0.4;
    bs.taps.push_back(tail);
    ctx.bias = blocks::design_bias_chain(ctx.technology(), bs);
    if (!ctx.bias.feasible) {
      return core::StepStatus::fail("bias-infeasible",
                                    ctx.bias.log.to_string());
    }
    ctx.out.iref = bs.iref;
    return core::StepStatus::success();
  });

  plan.add_step("finalize", [](ComparatorContext& ctx) {
    OpAmpDesign& amp = ctx.out;
    amp.itail = ctx.get("itail");
    amp.rref = ctx.bias.rref;
    amp.ideal_bias_reference =
        ctx.bias.style == blocks::BiasStyle::kIdealReference;
    if (amp.stage1_cascode) {
      // Telescopic input-cascode gate bias (see OTA designer).
      const auto& t = ctx.technology();
      const double vtail = ctx.icmr_mid() - ctx.get("vgs1");
      const double vd1 = vtail + ctx.get("vov1") + 0.10;
      const double vsb_c = std::max(vd1 - ctx.vss(), 0.0);
      amp.vb_cascode_n =
          vd1 + mos::vgs_for(t.nmos, ctx.get("vov1"), vsb_c);
    }
    internal::collect_devices(ctx);
    amp.feasible = true;

    ComparatorDesign& r = ctx.result;
    const double r_out =
        mos::parallel(ctx.pair.rout_drain, ctx.load.rout);
    r.gain_db = util::db20(ctx.get("gm1") * r_out);
    // Delay prediction: the initial output current is gm*vin (clipped at
    // the tail current once the pair fully steers); the output must move
    // half the swing to cross the trip level.
    const double swing = ctx.cspec.out_high - ctx.cspec.out_low;
    const double i_drive = std::min(
        ctx.get("gm1") * ctx.cspec.resolution, ctx.get("itail"));
    r.delay = ctx.cspec.cload * 0.5 * swing / i_drive;
    r.offset = ctx.get("offset_pred");
    r.power = (ctx.get("itail") + ctx.bias.ibias_total) *
              ctx.technology().supply_span();
    r.area = blocks::devices_area(ctx.technology(), amp.devices);
    amp.predicted.gain_db = r.gain_db;
    amp.predicted.offset = r.offset;
    amp.predicted.power = r.power;
    amp.predicted.area = r.area;
    // Informational GBW so the measurement layer scales its AC floor.
    amp.predicted.gbw = ctx.get("gm1") /
                        (util::kTwoPi * ctx.cspec.cload);
    if (ctx.cspec.power_max > 0.0 && r.power > ctx.cspec.power_max) {
      return core::StepStatus::fail(
          "power-over", format("power %.2f mW exceeds budget",
                               util::in_mw(r.power)));
    }
    return core::StepStatus::success();
  });

  // ---- rules --------------------------------------------------------------
  const std::size_t idx_targets = plan.step_index("derive-targets");
  const std::size_t idx_pair = plan.step_index("design-pair");
  const std::size_t plan_gain_length_index = plan.step_index("gain-length");
  const std::size_t plan_input_gm_index = plan.step_index("input-gm");

  plan.add_rule("raise-itail-for-gm",
                [](ComparatorContext& ctx, const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "vov1-floor") return std::nullopt;
                  if (ctx.bump("raise-itail") > 2) return std::nullopt;
                  ctx.set("itail",
                          ctx.get("gm1") * blocks::kMinOverdrive * 1.05);
                  return core::PatchAction::retry_step("raised tail current");
                });

  // Offset eats the resolution: lengthen the load (smaller lambda, smaller
  // Vds-mismatch error), re-running from the pair design.
  // Gain out of reach for the simple style: cascode the input stage (the
  // extra gain also eliminates the mirror's systematic offset, which is
  // worth double its weight in a comparator).
  plan.add_rule(
      "cascode-for-resolution",
      [](ComparatorContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "gain-shortfall" || ctx.out.stage1_cascode) {
          return std::nullopt;
        }
        ctx.out.stage1_cascode = true;
        return core::PatchAction::retry_step(
            "cascoded the input stage for resolution gain");
      });

  // Long channels (for gain) made the pair too wide for its gm: the
  // cascode gets the same gain at minimum length, where the width fits.
  plan.add_rule(
      "cascode-for-width",
      [plan_gain_length_index](ComparatorContext& ctx,
                               const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "pair-infeasible" || ctx.out.stage1_cascode) {
          return std::nullopt;
        }
        ctx.out.stage1_cascode = true;
        return core::PatchAction::restart_at(
            plan_gain_length_index,
            "cascoded the input stage: gain at Lmin keeps the pair width "
            "in range");
      });

  // Already cascoded and still too wide: the width scales as gm^2/Itail at
  // fixed length, so more tail current buys a narrower pair (at a power
  // cost the power check will arbitrate).
  plan.add_rule(
      "raise-itail-for-width",
      [plan_input_gm_index](ComparatorContext& ctx,
                            const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "pair-infeasible" || !ctx.out.stage1_cascode) {
          return std::nullopt;
        }
        if (ctx.bump("widen-itail") > 3) return std::nullopt;
        ctx.set("itail", ctx.get("itail") * 1.6);
        return core::PatchAction::restart_at(
            plan_input_gm_index, "raised tail current to narrow the pair");
      });

  plan.add_rule(
      "lengthen-load-for-offset",
      [idx_pair](ComparatorContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "offset-vs-resolution") return std::nullopt;
        if (ctx.bump("lengthen-load") > 2) return std::nullopt;
        const double l_new = ctx.get("l1") * 1.6;
        if (l_new > blocks::max_length(ctx.technology())) {
          return std::nullopt;
        }
        ctx.set("l1", l_new);
        return core::PatchAction::restart_at(
            idx_pair,
            format("lengthened channels to %.1f um to shrink offset",
                   util::in_um(l_new)));
      });

  plan.add_rule("trim-gain-margin-for-power",
                [idx_targets](ComparatorContext& ctx,
                              const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "power-over") return std::nullopt;
                  if (ctx.bump("trim-power") > 1) return std::nullopt;
                  ctx.set("gain_margin", 1.2);
                  return core::PatchAction::restart_at(
                      idx_targets, "trimmed the gain margin to meet power");
                });

  return plan;
}

}  // namespace

ComparatorDesign design_comparator(const tech::Technology& t,
                                   const ComparatorSpec& spec,
                                   const SynthOptions& opts) {
  ComparatorContext ctx(t, spec, opts);
  ctx.result.spec = spec;
  if (spec.validate().has_errors()) {
    ctx.result.amp.log.append(spec.validate());
    return std::move(ctx.result);
  }
  static const core::Plan<ComparatorContext> plan = build_comparator_plan();
  core::ExecutorOptions exec;
  exec.rules_enabled = opts.rules_enabled;
  exec.max_patches = opts.max_patches;
  ctx.out.trace = core::execute_plan(plan, ctx, exec);
  ctx.out.feasible = ctx.out.trace.success && ctx.out.feasible;
  ctx.out.log.append(ctx.log());
  if (!ctx.out.trace.success) {
    ctx.out.log.error("style-infeasible", ctx.out.trace.abort_reason);
  }
  ctx.result.amp = std::move(ctx.out);
  ctx.result.feasible = ctx.result.amp.feasible;
  return std::move(ctx.result);
}

ComparatorBench comparator_bench(const ComparatorDesign& design,
                                 const tech::Technology& t,
                                 double offset_applied) {
  ComparatorBench b;
  ckt::Circuit& c = b.circuit;
  const BuiltOpAmp nodes = build_opamp(design.amp, t, c);
  b.out = nodes.out;
  c.add_vsource("VDD", nodes.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
  c.add_vsource("VSS", nodes.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
  c.add_capacitor("CL", nodes.out, ckt::kGround, design.spec.cload);
  const double vcm = 0.5 * (design.spec.icmr_lo + design.spec.icmr_hi);
  // The trip point of the positive input, offset-nulled: the op-amp offset
  // search applied vid differentially, here the whole vid lands on inp.
  const double trip = vcm + offset_applied;
  c.add_vsource("VREF", nodes.inn, ckt::kGround, ckt::Waveform::dc(vcm));
  const double half = design.spec.tprop_max * 4.0;
  b.t_rise = 0.1 * design.spec.tprop_max;
  b.t_fall = b.t_rise + half;
  c.add_vsource("VSTEP", nodes.inp, ckt::kGround,
                ckt::Waveform::pulse(trip - design.spec.resolution,
                                     trip + design.spec.resolution, b.t_rise,
                                     1e-9, 1e-9, half, 2.0 * half));
  b.tran.tstop = 2.0 * half;
  b.tran.dt = design.spec.tprop_max / 400.0;
  // The settled levels are absolute voltages read microseconds into the
  // run, after the slewing edge.  At the default rtol (1e-3) the adaptive
  // engine's global error there reaches a few mV; 1e-6 keeps it within
  // 0.2 mV of a dt/64 fixed-step run, in ~300 steps.
  b.tran.rtol = 1e-6;
  return b;
}

bool comparator_step_response(const ComparatorBench& b,
                              const tech::Technology& t,
                              const sim::TranOptions& tran,
                              MeasuredComparator* m) {
  const sim::OpResult op = sim::dc_operating_point(b.circuit, t);
  if (!op.converged) {
    m->error = "comparator transient operating point failed";
    return false;
  }
  const sim::TranResult tr = sim::transient(b.circuit, t, op, tran);
  if (!tr.ok) {
    m->error = "comparator transient failed: " + tr.error;
    return false;
  }
  const sim::MnaLayout layout(b.circuit);
  const std::vector<double> vout = tr.node_waveform(layout, b.out);
  const double mid = t.mid_supply();

  // Delay from `t0` to the first mid-supply crossing after it, placed on
  // the line between the two samples that bracket it, so the delay does
  // not depend on where the stepping put its samples.
  auto crossing_after = [&](double t0, bool rising) -> double {
    for (std::size_t i = 1; i < tr.time.size(); ++i) {
      if (tr.time[i] <= t0) continue;
      const bool crossed = rising ? (vout[i - 1] < mid && vout[i] >= mid)
                                  : (vout[i - 1] > mid && vout[i] <= mid);
      if (crossed) {
        const double frac = (mid - vout[i - 1]) / (vout[i] - vout[i - 1]);
        return tr.time[i - 1] + frac * (tr.time[i] - tr.time[i - 1]) - t0;
      }
    }
    return -1.0;
  };
  const double rise = crossing_after(b.t_rise, true);
  const double fall = crossing_after(b.t_fall, false);
  if (rise < 0.0 || fall < 0.0) {
    m->error = "output never crossed mid-supply";
    return false;
  }
  m->delay_rising = rise;
  m->delay_falling = fall;
  // Settled logic levels: the high plateau up to the falling edge (read
  // on the dense output at the edge itself, wherever the samples fell),
  // the low plateau anywhere in the record.
  m->out_high = tr.voltage_at(layout, b.out, b.t_fall);
  for (std::size_t i = 0; i < tr.time.size(); ++i) {
    if (tr.time[i] < b.t_fall) m->out_high = std::max(m->out_high, vout[i]);
  }
  m->out_low = *std::min_element(vout.begin(), vout.end());
  return true;
}

MeasuredComparator measure_comparator(const ComparatorDesign& design,
                                      const tech::Technology& t) {
  MeasuredComparator m;
  if (!design.feasible) {
    m.error = "design is infeasible";
    return m;
  }
  // Reuse the op-amp offset search (also validates the DC setup).
  MeasureOptions mo;
  mo.measure_slew = false;
  mo.measure_icmr = false;
  const MeasuredOpAmp amp = measure_opamp(design.amp, t, mo);
  if (!amp.ok) {
    m.error = "comparator DC/AC measurement failed: " + amp.error;
    return m;
  }
  m.offset = amp.perf.offset;
  m.power = amp.perf.power;

  const ComparatorBench b = comparator_bench(design, t, amp.offset_applied);
  if (!comparator_step_response(b, t, b.tran, &m)) return m;
  m.ok = true;
  return m;
}

}  // namespace oasys::synth
