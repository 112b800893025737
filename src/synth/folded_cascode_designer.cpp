#include "synth/folded_cascode_designer.h"

#include <algorithm>
#include <cmath>

#include "synth/designer_common.h"
#include "util/text.h"

namespace oasys::synth {

namespace {

using internal::OpAmpContext;
using util::format;

core::Plan<OpAmpContext> build_folded_cascode_plan() {
  core::Plan<OpAmpContext> plan("folded-cascode");

  plan.add_step("derive-targets", [](OpAmpContext& ctx) {
    const auto& s = ctx.spec;
    const double margin = ctx.get_or("target_margin", 1.15);
    ctx.set("gbw_t", std::max(s.gbw_min, util::khz(100.0)) * margin);
    ctx.set("sr_t", s.slew_min * margin);
    ctx.out.style = OpAmpStyle::kFoldedCascode;
    return core::StepStatus::success();
  });

  plan.add_step("currents", [](OpAmpContext& ctx) {
    // Full steering delivers the tail current to the output, so the slew
    // requirement sets Itail; fold sources carry Itail each so the cascode
    // branches never starve during slewing.
    const double itail =
        std::max(ctx.get("sr_t") * ctx.spec.cload, util::ua(2.0));
    ctx.set("itail", itail);
    ctx.set("i_fold", itail);          // per fold source
    ctx.set("i_branch", itail / 2.0);  // per cascode branch at balance
    return core::StepStatus::success();
  });

  plan.add_step("input-gm", [](OpAmpContext& ctx) {
    // Load compensated: GBW = gm1 / (2 pi CL).
    double gm1 = util::kTwoPi * ctx.get("gbw_t") * ctx.spec.cload;
    gm1 = std::max(gm1, ctx.get("itail") / 0.6);
    gm1 = std::max(gm1, ctx.get_or("gm1_floor", 0.0));  // noise rule hook
    ctx.set("gm1", gm1);
    const double vov1 = ctx.get("itail") / gm1;
    if (vov1 < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "vov1-floor",
          format("pair overdrive %.0f mV below the square-law floor",
                 util::in_mv(vov1)));
    }
    ctx.set("vov1", vov1);
    return core::StepStatus::success();
  });

  plan.add_step("headroom-budget", [](OpAmpContext& ctx) {
    // Swing-high: the output must rise through the fold source + cascode
    // (two Vdsat from VDD).
    const double hi_budget =
        ctx.spec.swing_pos > 0.0
            ? (ctx.vdd() - (ctx.mid() + ctx.spec.swing_pos)) / 2.0
            : 0.30;
    const double vov_f = std::clamp(hi_budget * 0.9, 0.0, 0.35);
    if (vov_f < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "swing-high",
          format("swing +%.2f V leaves %.0f mV per fold device",
                 ctx.spec.swing_pos, util::in_mv(vov_f)));
    }
    ctx.set("vov_fold", vov_f);
    // Swing-low: the self-biased cascode mirror needs VT + 2 Vov.
    const double lo_budget =
        ctx.spec.swing_neg > 0.0
            ? (ctx.mid() - ctx.spec.swing_neg) - ctx.vss()
            : ctx.nmosp().vt0 + 0.5;
    const double vov_m =
        std::clamp((lo_budget * 0.9 - ctx.nmosp().vt0) / 2.0, 0.0, 0.35);
    if (vov_m < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "swing-low",
          format("swing -%.2f V cannot fit the cascode mirror (needs VT + "
                 "2 Vov)",
                 ctx.spec.swing_neg));
    }
    ctx.set("vov_mirror", vov_m);
    return core::StepStatus::success();
  });

  plan.add_step("icmr", [](OpAmpContext& ctx) {
    const double vov1 = ctx.get("vov1");
    if (!ctx.icmr_constrained()) {
      ctx.set("tail_compliance", 0.4);
      return core::StepStatus::success();
    }
    // Top: M1 saturates while its drain sits at the fold node,
    // vdd - vov_fold - margin, i.e. the range extends to about a VT above
    // it — the style's selling point.
    const double vgs1_hi =
        internal::input_pair_vgs(ctx.technology(), vov1, ctx.icmr_hi());
    const double fold_level = ctx.vdd() - ctx.get("vov_fold") - 0.1;
    if (ctx.icmr_hi() > fold_level + (vgs1_hi - vov1)) {
      return core::StepStatus::fail(
          "icmr-high", format("common-mode top %.2f V exceeds the fold "
                              "node saturation limit",
                              ctx.icmr_hi()));
    }
    const double vgs1_lo =
        internal::input_pair_vgs(ctx.technology(), vov1, ctx.icmr_lo());
    const double tail_budget = ctx.icmr_lo() - ctx.vss() - vgs1_lo;
    if (tail_budget < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "icmr-low",
          format("common-mode bottom %.2f V leaves %.0f mV for the tail",
                 ctx.icmr_lo(), util::in_mv(tail_budget)));
    }
    ctx.set("tail_compliance", tail_budget);
    return core::StepStatus::success();
  });

  plan.add_step("design-pair", [](OpAmpContext& ctx) {
    blocks::DiffPairSpec ps;
    ps.type = mos::MosType::kNmos;
    ps.gm = ctx.get("gm1");
    ps.itail = ctx.get("itail");
    ps.l = ctx.technology().lmin;  // cascodes carry the gain burden
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

  plan.add_step("design-fold-cascodes", [](OpAmpContext& ctx) {
    // Common-gate PMOS devices sized for the branch current at the fold
    // overdrive; reuse the gm-stage designer's sizing math.
    blocks::GmStageSpec gs;
    gs.role_prefix = "MFC";  // yields role "MFC6"; renamed below
    gs.type = mos::MosType::kPmos;
    const double i_branch = ctx.get("i_branch");
    const double vov_f = ctx.get("vov_fold");
    gs.gm = mos::gm_from_id_vov(i_branch, vov_f);
    gs.id = i_branch;
    gs.l = ctx.technology().lmin;
    gs.vov_max = vov_f * 1.02;
    blocks::GmStageDesign one = blocks::design_gm_stage(ctx.technology(), gs);
    if (!one.feasible) {
      return core::StepStatus::fail("fold-cascode-infeasible",
                                    one.log.to_string());
    }
    ctx.gm2 = one;  // keep for poles/gain equations
    // Materialize the two cascode devices from the single sized template.
    blocks::SizedDevice proto = one.devices.front();
    ctx.gm2.devices.clear();
    proto.role = "MFC1";
    ctx.gm2.devices.push_back(proto);
    proto.role = "MFC2";
    ctx.gm2.devices.push_back(proto);
    return core::StepStatus::success();
  });

  plan.add_step("design-load-mirror", [](OpAmpContext& ctx) {
    blocks::CurrentMirrorSpec ms;
    ms.role_prefix = "MLF";
    ms.type = mos::MosType::kNmos;
    ms.iin = ctx.get("i_branch");
    ms.iout = ctx.get("i_branch");
    ms.compliance_max =
        ctx.nmosp().vt0 + 2.0 * ctx.get("vov_mirror") + 0.02;
    ctx.load = blocks::design_mirror_style(ctx.technology(), ms,
                                           blocks::MirrorStyle::kCascode);
    if (!ctx.load.feasible) {
      return core::StepStatus::fail("load-infeasible",
                                    ctx.load.log.to_string());
    }
    return core::StepStatus::success();
  });

  plan.add_step("gain-check", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    const double i_branch = ctx.get("i_branch");
    const double vov_f = ctx.get("vov_fold");
    // Looking up from the output: the fold cascode multiplies the parallel
    // resistance of the pair device and the fold source.
    const double gm_c = mos::gm_from_id_vov(i_branch, vov_f);
    const double ro_c = mos::rout_sat(t.pmos.lambda_at(t.lmin), i_branch);
    const double ro_pair = ctx.pair.rout_drain;
    const double ro_fold =
        mos::rout_sat(t.pmos.lambda_at(2.0 * t.lmin), ctx.get("i_fold"));
    const double r_up = mos::rout_cascode(
        gm_c, ro_c, mos::parallel(ro_pair, ro_fold));
    const double r_out = mos::parallel(r_up, ctx.load.rout);
    const double av = ctx.get("gm1") * r_out;
    ctx.set("av", av);
    ctx.set("r_out", r_out);
    const double av_req = util::from_db20(ctx.spec.gain_min_db + 1.0);
    if (av < av_req) {
      return core::StepStatus::fail(
          "gain-unreachable",
          format("folded cascode reaches %.1f dB < required %.1f dB",
                 util::db20(av), ctx.spec.gain_min_db));
    }
    return core::StepStatus::success();
  });

  plan.add_step("design-bias", [](OpAmpContext& ctx) {
    blocks::BiasChainSpec bs;
    bs.style = ctx.opts.bias_style;
    bs.iref = std::clamp(ctx.get("itail"), util::ua(5.0), ctx.opts.iref);
    blocks::BiasTap tail;
    tail.role = "M5";
    tail.type = mos::MosType::kNmos;
    tail.iout = ctx.get("itail");
    tail.compliance_max = ctx.get("tail_compliance");
    bs.taps.push_back(tail);
    // Fold current sources: PMOS taps at the fold overdrive.
    for (const char* role : {"MF3", "MF4"}) {
      blocks::BiasTap fold;
      fold.role = role;
      fold.type = mos::MosType::kPmos;
      fold.iout = ctx.get("i_fold");
      fold.compliance_max = ctx.get("vov_fold") / 0.9;
      bs.taps.push_back(fold);
    }
    ctx.bias = blocks::design_bias_chain(ctx.technology(), bs);
    if (!ctx.bias.feasible) {
      return core::StepStatus::fail("bias-infeasible",
                                    ctx.bias.log.to_string());
    }
    ctx.out.iref = bs.iref;
    return core::StepStatus::success();
  });

  plan.add_step("pm-check", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    const double gbw = ctx.get("gbw_t");
    // Fold-node pole: gm_c over the capacitance parked at the fold node —
    // the cascode's Cgs plus the drain junctions of the (wide) fold source
    // and input device that also sit there.
    const double gm_c =
        mos::gm_from_id_vov(ctx.get("i_branch"), ctx.get("vov_fold"));
    const blocks::SizedDevice& cdev = ctx.gm2.devices.front();
    double c_fold = mos::cgs_sat(t, t.pmos, {cdev.w, cdev.l, cdev.m});
    const double vrev_est = 2.0;  // nominal junction reverse bias
    c_fold += mos::cdb_at(t, t.nmos, ctx.pair.devices.front().w, vrev_est);
    for (const auto& dev : ctx.bias.devices) {
      if (dev.role == "MF3") {
        c_fold += mos::cdb_at(t, t.pmos, dev.w, vrev_est);
      }
    }
    double pm = 90.0 - internal::pole_phase_deg(
                           gbw, gm_c / (util::kTwoPi * c_fold));
    // Mirror pole at the cascode-mirror diode stack.
    const double gm_m =
        mos::gm_from_id_vov(ctx.get("i_branch"), ctx.load.vov);
    const blocks::SizedDevice& mdev = ctx.load.devices.front();
    const double cgs_m = mos::cgs_sat(t, t.nmos, {mdev.w, mdev.l, mdev.m});
    pm -= internal::pole_phase_deg(gbw, gm_m / (util::kTwoPi * 2.0 * cgs_m));
    ctx.set("pm_pred", pm);
    if (ctx.spec.pm_min_deg > 0.0 && pm < ctx.spec.pm_min_deg) {
      return core::StepStatus::fail(
          "pm-shortfall", format("predicted PM %.0f deg < spec %.0f deg",
                                 pm, ctx.spec.pm_min_deg));
    }
    return core::StepStatus::success();
  });

  plan.add_step("noise-check", [](OpAmpContext& ctx) {
    // Folded cascode pays a noise tax: the fold sources and the mirror
    // both inject current noise straight into the signal path.
    const double gm1 = ctx.get("gm1");
    const double gm_fold =
        mos::gm_from_id_vov(ctx.get("i_fold"), ctx.bias.vov);
    const double gm_mirror =
        mos::gm_from_id_vov(ctx.get("i_branch"), ctx.load.vov);
    const double four_kt = 4.0 * util::kBoltzmann * util::kRoomTempK;
    const double sv = 2.0 * four_kt * (2.0 / 3.0) / gm1 *
                      (1.0 + (gm_fold + gm_mirror) / gm1);
    ctx.set("noise_pred", std::sqrt(sv));
    if (ctx.spec.noise_max > 0.0 && std::sqrt(sv) > ctx.spec.noise_max) {
      return core::StepStatus::fail(
          "noise-over",
          format("input noise %.0f nV/rtHz exceeds %.0f nV/rtHz",
                 std::sqrt(sv) * 1e9, ctx.spec.noise_max * 1e9));
    }
    return core::StepStatus::success();
  });

  plan.add_step("power-area-check", [](OpAmpContext& ctx) {
    // Supply current: the two fold sources carry everything.
    const double power =
        (2.0 * ctx.get("i_fold") + ctx.bias.ibias_total) *
        ctx.technology().supply_span();
    ctx.set("power_pred", power);
    if (ctx.spec.power_max > 0.0 && power > ctx.spec.power_max) {
      return core::StepStatus::fail(
          "power-over", format("power %.2f mW exceeds %.2f mW",
                               util::in_mw(power),
                               util::in_mw(ctx.spec.power_max)));
    }
    internal::collect_devices(ctx);
    const double area =
        blocks::devices_area(ctx.technology(), ctx.out.devices);
    ctx.set("area_pred", area);
    if (ctx.spec.area_max > 0.0 && area > ctx.spec.area_max) {
      return core::StepStatus::fail("area-over", "area budget exceeded");
    }
    return core::StepStatus::success();
  });

  plan.add_step("finalize", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    OpAmpDesign& out = ctx.out;
    out.itail = ctx.get("itail");
    out.i2 = ctx.get("i_fold");
    out.rref = ctx.bias.rref;
    out.ideal_bias_reference =
        ctx.bias.style == blocks::BiasStyle::kIdealReference;
    // Fold-cascode gate bias: one Vdsat+margin below the fold node.
    const double fold_level = ctx.vdd() - ctx.get("vov_fold") - 0.1;
    out.vb_cascode_p =
        fold_level - mos::vgs_for(t.pmos, ctx.get("vov_fold"), 0.0);

    core::OpAmpPerformance& p = out.predicted;
    p.gain_db = util::db20(ctx.get("av"));
    p.gbw = ctx.get("gm1") / (util::kTwoPi * ctx.spec.cload);
    p.pm_deg = ctx.get("pm_pred");
    p.slew = out.itail / ctx.spec.cload;
    p.swing_pos = ctx.vdd() - 2.0 * ctx.get("vov_fold") - ctx.mid();
    p.swing_neg = ctx.mid() - (ctx.vss() + ctx.load.compliance);
    // Cascode mirror equalizes Vds: negligible systematic offset beyond
    // the fold-node asymmetry.
    p.offset = 0.1e-3 / std::max(util::db20(ctx.get("av")), 1.0);
    p.icmr_lo = ctx.vss() + ctx.get("vgs1") + ctx.bias.vov;
    const double vt1 = ctx.get("vgs1") - ctx.get("vov1");
    p.icmr_hi = ctx.vdd() - ctx.get("vov_fold") - 0.1 + vt1;
    p.power = ctx.get("power_pred");
    p.area = ctx.get("area_pred");
    const double rtail =
        ctx.bias.tap_rout.empty() ? 0.0 : ctx.bias.tap_rout.front();
    if (rtail > 0.0) {
      p.cmrr_db = util::db20(ctx.get("gm1") * ctx.get("r_out") * 2.0 *
                             mos::gm_from_id_vov(ctx.get("i_branch"),
                                                 ctx.load.vov) *
                             rtail);
    }
    p.psrr_db = p.gain_db;
    p.noise_in = ctx.get_or("noise_pred", 0.0);
    out.feasible = true;
    return core::StepStatus::success();
  });

  // ---- rules ---------------------------------------------------------------
  const std::size_t idx_targets = plan.step_index("derive-targets");
  const std::size_t idx_input_gm = plan.step_index("input-gm");

  plan.add_rule(
      "raise-gm1-for-noise",
      [idx_input_gm](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "noise-over") return std::nullopt;
        if (ctx.bump("gm1-noise") > 3) return std::nullopt;
        const double ratio = ctx.get("noise_pred") / ctx.spec.noise_max;
        ctx.set("gm1_floor", ctx.get("gm1") * ratio * ratio * 1.1);
        return core::PatchAction::restart_at(
            idx_input_gm, "raised the input gm for noise");
      });

  plan.add_rule("raise-itail-for-gm",
                [](OpAmpContext& ctx, const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "vov1-floor") return std::nullopt;
                  if (ctx.bump("raise-itail") > 2) return std::nullopt;
                  const double itail =
                      ctx.get("gm1") * blocks::kMinOverdrive * 1.05;
                  ctx.set("itail", itail);
                  ctx.set("i_fold", itail);
                  ctx.set("i_branch", itail / 2.0);
                  return core::PatchAction::retry_step("raised tail current");
                });

  plan.add_rule(
      "accept-first-cut-pm",
      [](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "pm-shortfall") return std::nullopt;
        const double pm = ctx.get_or("pm_pred", 0.0);
        if (pm < ctx.spec.pm_min_deg - ctx.opts.pm_grace_deg) {
          return std::nullopt;
        }
        internal::record_soft_violation(
            ctx, "pm", format("shipping first-cut design with PM %.0f deg",
                              pm));
        return core::PatchAction::proceed("accepted first-cut PM");
      });

  plan.add_rule("trim-margins-for-power",
                [idx_targets](OpAmpContext& ctx, const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "power-over") return std::nullopt;
                  if (ctx.bump("trim-power") > 1) return std::nullopt;
                  ctx.set("target_margin", 1.0);
                  return core::PatchAction::restart_at(
                      idx_targets, "trimmed design margins to meet power");
                });

  return plan;
}

}  // namespace

OpAmpDesign design_folded_cascode(const tech::Technology& t,
                                  const core::OpAmpSpec& spec,
                                  const SynthOptions& opts) {
  OpAmpContext ctx(t, spec, opts);
  static const core::Plan<OpAmpContext> plan = build_folded_cascode_plan();
  core::ExecutorOptions exec;
  exec.rules_enabled = opts.rules_enabled;
  exec.max_patches = opts.max_patches;
  ctx.out.trace = core::execute_plan(plan, ctx, exec);
  ctx.out.feasible = ctx.out.trace.success && ctx.out.feasible;
  ctx.out.log.append(ctx.log());
  if (!ctx.out.trace.success) {
    ctx.out.log.error("style-infeasible", ctx.out.trace.abort_reason);
  }
  return std::move(ctx.out);
}

}  // namespace oasys::synth
