#include "synth/ota_designer.h"

#include <algorithm>
#include <cmath>

#include "synth/designer_common.h"
#include "util/text.h"

namespace oasys::synth {

namespace {

using internal::OpAmpContext;
using util::format;

// Plan-step indices needed by rules are resolved by name at build time.

core::Plan<OpAmpContext> build_ota_plan() {
  core::Plan<OpAmpContext> plan("one-stage-ota");

  // ---- targets -----------------------------------------------------------
  plan.add_step("derive-targets", [](OpAmpContext& ctx) {
    const auto& s = ctx.spec;
    const double margin = ctx.get_or("target_margin", 1.15);
    ctx.set("gbw_t", std::max(s.gbw_min, util::khz(100.0)) * margin);
    ctx.set("sr_t", s.slew_min * margin);
    ctx.set("pm_t", s.pm_min_deg > 0.0 ? s.pm_min_deg + 4.0 : 49.0);
    ctx.out.style = OpAmpStyle::kOneStageOta;
    return core::StepStatus::success();
  });

  plan.add_step("tail-current", [](OpAmpContext& ctx) {
    // Slew of the OTA is Itail / CL.
    const double itail =
        std::max(ctx.get("sr_t") * ctx.spec.cload, util::ua(2.0));
    ctx.set("itail", itail);
    return core::StepStatus::success();
  });

  plan.add_step("input-gm", [](OpAmpContext& ctx) {
    // The OTA is load-compensated: GBW = gm1 / (2 pi CL).
    double gm1 = util::kTwoPi * ctx.get("gbw_t") * ctx.spec.cload;
    gm1 = std::max(gm1, ctx.get_or("gm1_floor", 0.0));
    // Cap the pair overdrive at 0.6 V by spending extra gm (harmless).
    gm1 = std::max(gm1, ctx.get("itail") / 0.6);
    ctx.set("gm1", gm1);
    return core::StepStatus::success();
  });

  plan.add_step("input-overdrive", [](OpAmpContext& ctx) {
    const double vov1 = ctx.get("itail") / ctx.get("gm1");
    if (vov1 < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "vov1-floor",
          format("pair overdrive %.0f mV below the square-law floor",
                 util::in_mv(vov1)));
    }
    ctx.set("vov1", vov1);
    return core::StepStatus::success();
  });

  // ---- input common-mode range -------------------------------------------
  plan.add_step("icmr-high", [](OpAmpContext& ctx) {
    // M1 saturation at the top of the range: the drain of M1 sits one
    // load-branch drop below VDD; need vd1 >= vicm_hi - VT1.
    const double vov1 = ctx.get("vov1");
    if (!ctx.icmr_constrained()) {
      ctx.set("vov3_budget", 0.25);
      return core::StepStatus::success();
    }
    const double vgs1 =
        internal::input_pair_vgs(ctx.technology(), vov1, ctx.icmr_hi());
    const double vt1_hi = vgs1 - vov1;
    const int stack = ctx.out.stage1_cascode ? 2 : 1;
    // Budget for each |VSG| of the load branch.
    const double vsg_budget =
        (ctx.vdd() - ctx.icmr_hi() + vt1_hi) / stack;
    const double vov3 = vsg_budget - ctx.pmosp().vt0;
    if (vov3 < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "icmr-high",
          format("common-mode top %.2f V leaves load overdrive %.0f mV",
                 ctx.icmr_hi(), util::in_mv(vov3)));
    }
    ctx.set("vov3_budget", std::min(vov3, 0.4));
    return core::StepStatus::success();
  });

  plan.add_step("icmr-low", [](OpAmpContext& ctx) {
    const double vov1 = ctx.get("vov1");
    if (!ctx.icmr_constrained()) {
      ctx.set("tail_compliance", 0.4);
      return core::StepStatus::success();
    }
    const double vgs1 =
        internal::input_pair_vgs(ctx.technology(), vov1, ctx.icmr_lo());
    const double budget = ctx.icmr_lo() - ctx.vss() - vgs1;
    const double need = ctx.out.tail_cascode
                            ? ctx.nmosp().vt0 + 2.0 * blocks::kMinOverdrive
                            : blocks::kMinOverdrive;
    if (budget < need) {
      return core::StepStatus::fail(
          "icmr-low",
          format("common-mode bottom %.2f V leaves %.0f mV for the tail",
                 ctx.icmr_lo(), util::in_mv(budget)));
    }
    ctx.set("tail_compliance", budget);
    return core::StepStatus::success();
  });

  // ---- gain --------------------------------------------------------------
  plan.add_step("gain-length", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    const double av_req = util::from_db20(ctx.spec.gain_min_db + 1.0);
    const double vov1 = ctx.get("vov1");
    const double id1 = ctx.get("itail") / 2.0;
    if (!ctx.out.stage1_cascode) {
      // Av = gm1 / ((lambda_n + lambda_p) * Id1) with lambda = lambda_l/L.
      const double lambda_tot = 2.0 / (av_req * vov1);
      double l = (t.nmos.lambda_l + t.pmos.lambda_l) / lambda_tot;
      l = std::max(l, t.lmin);
      if (l > blocks::max_length(t)) {
        return core::StepStatus::fail(
            "gain-shortfall",
            format("simple style needs L = %.1f um > %.1f um for %.0f dB",
                   util::in_um(l), util::in_um(blocks::max_length(t)),
                   ctx.spec.gain_min_db));
      }
      ctx.set("l1", l);
      ctx.set("l_load", l);
    } else {
      // Telescopic: cascode multiplication makes minimum length plenty;
      // verify the achievable gain from the cascode equations.
      const double l = t.lmin;
      const double gm1 = ctx.get("gm1");
      const double gm_c = mos::gm_from_id_vov(id1, vov1);
      const double ro_n = mos::rout_sat(t.nmos.lambda_at(l), id1);
      const double r_down = mos::rout_cascode(gm_c, ro_n, ro_n);
      const double vov3 = ctx.get("vov3_budget");
      const double gm_cp = mos::gm_from_id_vov(id1, vov3);
      const double ro_p = mos::rout_sat(t.pmos.lambda_at(l), id1);
      const double r_up = mos::rout_cascode(gm_cp, ro_p, ro_p);
      const double av = gm1 * mos::parallel(r_up, r_down);
      if (av < av_req) {
        return core::StepStatus::fail(
            "gain-unreachable",
            format("telescopic style reaches %.0f dB < required %.0f dB",
                   util::db20(av), ctx.spec.gain_min_db));
      }
      ctx.set("l1", l);
      ctx.set("l_load", l);
    }
    return core::StepStatus::success();
  });

  // ---- sub-block design ----------------------------------------------------
  plan.add_step("design-pair", [](OpAmpContext& ctx) {
    blocks::DiffPairSpec ps;
    ps.type = mos::MosType::kNmos;
    ps.gm = ctx.get("gm1");
    ps.itail = ctx.get("itail");
    ps.l = ctx.get("l1");
    ps.style = ctx.out.stage1_cascode ? blocks::DiffPairStyle::kCascode
                                      : blocks::DiffPairStyle::kSimple;
    const double vgs1 = internal::input_pair_vgs(
        ctx.technology(), ctx.get("vov1"), ctx.icmr_mid());
    ps.vsb = ctx.icmr_mid() - vgs1 - ctx.vss();
    ctx.set("vgs1", vgs1);
    ctx.pair = blocks::design_diff_pair(ctx.technology(), ps);
    if (!ctx.pair.feasible) {
      return core::StepStatus::fail("pair-infeasible",
                                    ctx.pair.log.to_string());
    }
    return core::StepStatus::success();
  });

  plan.add_step("design-load-mirror", [](OpAmpContext& ctx) {
    const double id1 = ctx.get("itail") / 2.0;
    blocks::CurrentMirrorSpec ms;
    ms.role_prefix = "ML";
    ms.type = mos::MosType::kPmos;
    ms.iin = id1;
    ms.iout = id1;
    // Each side of the output resistance must carry half the burden.
    const double av_req = util::from_db20(ctx.spec.gain_min_db + 1.0);
    ms.rout_min = ctx.out.stage1_cascode
                      ? 0.0  // checked jointly in gain-length
                      : 2.0 * av_req / ctx.get("gm1");
    // Compliance: the smaller of the ICMR-derived |VSG| budget and the
    // swing-high budget (output must rise to mid + swing_pos).
    const double swing_budget =
        ctx.vdd() - (ctx.mid() + ctx.spec.swing_pos);
    double compliance = swing_budget;
    if (ctx.out.stage1_cascode) {
      // Cascode mirror output needs VT + 2 Vov of headroom.
      compliance = std::min(compliance,
                            ctx.pmosp().vt0 + 2.0 * ctx.get("vov3_budget"));
    } else {
      compliance = std::min(compliance, ctx.get("vov3_budget") / 0.9);
    }
    ms.compliance_max = compliance;
    // Nominal |Vds| at the output device when the output sits at mid-rail,
    // for the systematic-offset prediction.
    ms.vds_out_nominal = ctx.vdd() - ctx.mid();
    const blocks::MirrorStyle style = ctx.out.stage1_cascode
                                          ? blocks::MirrorStyle::kCascode
                                          : blocks::MirrorStyle::kSimple;
    ctx.load = blocks::design_mirror_style(ctx.technology(), ms, style);
    if (!ctx.load.feasible) {
      const bool swing_limited =
          swing_budget < (ctx.out.stage1_cascode
                              ? ctx.pmosp().vt0 + 2.0 * blocks::kMinOverdrive
                              : blocks::kMinOverdrive);
      return core::StepStatus::fail(
          swing_limited ? "swing-gain-conflict" : "load-infeasible",
          ctx.load.log.to_string());
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
    tail.cascode = ctx.out.tail_cascode;
    tail.compliance_max = ctx.get("tail_compliance");
    bs.taps.push_back(tail);
    ctx.bias = blocks::design_bias_chain(ctx.technology(), bs);
    if (!ctx.bias.feasible) {
      return core::StepStatus::fail("bias-infeasible",
                                    ctx.bias.log.to_string());
    }
    ctx.out.iref = bs.iref;
    return core::StepStatus::success();
  });

  // ---- verification against the spec --------------------------------------
  plan.add_step("offset-check", [](OpAmpContext& ctx) {
    // The single-ended mirror load leaves an inherent systematic offset:
    // the diode side sits at |VSG3| while the output side sees the output
    // voltage, and channel-length modulation turns that Vds difference
    // into a current error referred to the input as error*Id/gm1.
    const double id1 = ctx.get("itail") / 2.0;
    const double offset =
        std::abs(ctx.load.current_error_frac) * id1 / ctx.get("gm1");
    ctx.set("offset_pred", offset);
    if (ctx.spec.offset_max > 0.0 && offset > ctx.spec.offset_max) {
      return core::StepStatus::fail(
          "offset-inherent",
          format("systematic offset %.1f mV exceeds %.1f mV",
                 util::in_mv(offset), util::in_mv(ctx.spec.offset_max)));
    }
    return core::StepStatus::success();
  });

  plan.add_step("swing-check", [](OpAmpContext& ctx) {
    const double out_hi = ctx.vdd() - ctx.load.compliance;
    // M2 leaves saturation when the output falls below vicm - VT1.
    const double vgs1 = ctx.get("vgs1");
    const double vt1 = vgs1 - ctx.get("vov1");
    double out_lo = ctx.icmr_mid() - vt1;
    if (ctx.out.stage1_cascode) {
      // The input cascode keeps M2's drain pinned; the output floor is the
      // cascode's own saturation limit instead.
      out_lo = ctx.icmr_mid() - vgs1 + 2.0 * ctx.get("vov1") +
               blocks::kMinOverdrive;
    }
    ctx.set("swing_pos_pred", out_hi - ctx.mid());
    ctx.set("swing_neg_pred", ctx.mid() - out_lo);
    if (ctx.spec.swing_pos > 0.0 &&
        out_hi - ctx.mid() < ctx.spec.swing_pos) {
      return core::StepStatus::fail(
          "swing-high",
          format("output reaches +%.2f V < required +%.2f V",
                 out_hi - ctx.mid(), ctx.spec.swing_pos));
    }
    if (ctx.spec.swing_neg > 0.0 &&
        ctx.mid() - out_lo < ctx.spec.swing_neg) {
      return core::StepStatus::fail(
          "swing-low",
          format("output reaches -%.2f V, required -%.2f V",
                 ctx.mid() - out_lo, ctx.spec.swing_neg));
    }
    return core::StepStatus::success();
  });

  plan.add_step("pm-check", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    const double gbw = ctx.get("gbw_t");
    // Mirror pole: the diode-connected gate node of the load.
    const double id1 = ctx.get("itail") / 2.0;
    const double gm3 = mos::gm_from_id_vov(id1, ctx.load.vov);
    const blocks::SizedDevice& mdev = ctx.load.devices.front();
    const double cgs3 =
        mos::cgs_sat(t, t.pmos, {mdev.w, mdev.l, mdev.m});
    const double p_mirror = gm3 / (util::kTwoPi * 2.0 * cgs3);
    double pm = 90.0 - internal::pole_phase_deg(gbw, p_mirror);
    if (ctx.out.stage1_cascode) {
      // Cascode node poles (gm_c/Cgs_c), one per stack.
      const double gm_c = mos::gm_from_id_vov(id1, ctx.get("vov1"));
      const blocks::SizedDevice* cdev = nullptr;
      for (const auto& d : ctx.pair.devices) {
        if (d.role == "M1C") cdev = &d;
      }
      if (cdev != nullptr) {
        const double cgs_c =
            mos::cgs_sat(t, t.nmos, {cdev->w, cdev->l, cdev->m});
        pm -= 2.0 * internal::pole_phase_deg(
                        gbw, gm_c / (util::kTwoPi * cgs_c));
      }
    }
    ctx.set("pm_pred", pm);
    if (ctx.spec.pm_min_deg > 0.0 && pm < ctx.spec.pm_min_deg) {
      return core::StepStatus::fail(
          "pm-shortfall", format("predicted PM %.0f deg < spec %.0f deg",
                                 pm, ctx.spec.pm_min_deg));
    }
    return core::StepStatus::success();
  });

  plan.add_step("noise-check", [](OpAmpContext& ctx) {
    // Input-referred thermal noise: both pair devices plus the mirror
    // load's contribution scaled by (gm3/gm1)^2 referred through gm1.
    const double gm1 = ctx.get("gm1");
    const double id1 = ctx.get("itail") / 2.0;
    const double gm3 = mos::gm_from_id_vov(id1, ctx.load.vov);
    const double four_kt = 4.0 * util::kBoltzmann * util::kRoomTempK;
    const double sv =
        2.0 * four_kt * (2.0 / 3.0) / gm1 * (1.0 + gm3 / gm1);
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
    const double power =
        (ctx.get("itail") + ctx.bias.ibias_total) *
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
      return core::StepStatus::fail(
          "area-over", format("area %.0f um^2 exceeds %.0f um^2",
                              util::in_um2(area),
                              util::in_um2(ctx.spec.area_max)));
    }
    return core::StepStatus::success();
  });

  plan.add_step("finalize", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    OpAmpDesign& out = ctx.out;
    out.itail = ctx.get("itail");
    out.rref = ctx.bias.rref;
    out.ideal_bias_reference =
        ctx.bias.style == blocks::BiasStyle::kIdealReference;

    if (out.stage1_cascode) {
      // Gate bias for the telescopic input cascodes (ideal source; see
      // DESIGN.md substitutions).
      const double vtail = ctx.icmr_mid() - ctx.get("vgs1");
      const double vd1 = vtail + ctx.get("vov1") + 0.10;
      const double vsb_c = std::max(vd1 - ctx.vss(), 0.0);
      out.vb_cascode_n =
          vd1 + mos::vgs_for(t.nmos, ctx.get("vov1"), vsb_c);
    }

    core::OpAmpPerformance& p = out.predicted;
    const double r_out =
        mos::parallel(ctx.pair.rout_drain, ctx.load.rout);
    p.gain_db = util::db20(ctx.get("gm1") * r_out);
    p.gbw = ctx.get("gm1") / (util::kTwoPi * ctx.spec.cload);
    p.pm_deg = ctx.get("pm_pred");
    p.slew = out.itail / ctx.spec.cload;
    p.swing_pos = ctx.get("swing_pos_pred");
    p.swing_neg = ctx.get("swing_neg_pred");
    p.offset = ctx.get("offset_pred");
    p.icmr_lo = ctx.vss() + ctx.get("vgs1") +
                (out.tail_cascode
                     ? ctx.bias.vov * 2.0 + t.nmos.vt0
                     : ctx.bias.vov);
    p.icmr_hi = ctx.vdd() -
                (out.stage1_cascode ? 2.0 : 1.0) *
                    (t.pmos.vt0 + ctx.load.vov) +
                (ctx.get("vgs1") - ctx.get("vov1"));
    p.power = ctx.get("power_pred");
    p.area = ctx.get("area_pred");
    // Rough common-mode rejection estimate: Acm ~ 1/(2 gm3 Rtail).
    const double id1 = out.itail / 2.0;
    const double gm3 = mos::gm_from_id_vov(id1, ctx.load.vov);
    const double rtail =
        ctx.bias.tap_rout.empty() ? 0.0 : ctx.bias.tap_rout.front();
    if (rtail > 0.0) {
      p.cmrr_db = util::db20(ctx.get("gm1") * r_out * 2.0 * gm3 * rtail);
    }
    p.psrr_db = p.gain_db;  // first-order: supply gain ~ 1
    p.noise_in = ctx.get_or("noise_pred", 0.0);
    out.feasible = true;
    return core::StepStatus::success();
  });

  // ======================= patch rules =====================================
  const std::size_t idx_targets = plan.step_index("derive-targets");
  const std::size_t idx_input_gm = plan.step_index("input-gm");
  const std::size_t idx_icmr_hi = plan.step_index("icmr-high");
  const std::size_t idx_gain = plan.step_index("gain-length");

  // Slew fixed the tail current but the gm target needs a smaller
  // overdrive than the square law trusts: raise the tail current.
  plan.add_rule("raise-itail-for-gm",
                [](OpAmpContext& ctx, const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "vov1-floor") return std::nullopt;
                  if (ctx.bump("raise-itail") > 2) return std::nullopt;
                  const double itail =
                      ctx.get("gm1") * blocks::kMinOverdrive * 1.05;
                  ctx.set("itail", itail);
                  return core::PatchAction::retry_step(
                      format("raised tail current to %.1f uA",
                             util::in_ua(itail)));
                });

  // Gain (or the mirror pole implied by a long load) is out of reach for
  // the simple style: switch the whole input stage to the cascode
  // (telescopic) configuration and redo the stage design.
  plan.add_rule(
      "cascode-input-stage",
      [idx_icmr_hi](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        const bool gain_issue =
            f.code == "gain-shortfall" || f.code == "pm-shortfall";
        if (!gain_issue || ctx.out.stage1_cascode) return std::nullopt;
        if (f.code == "pm-shortfall" &&
            ctx.get_or("l_load", 0.0) <= 1.5 * ctx.technology().lmin) {
          // Short-channel load already; cascoding won't move the mirror
          // pole, let another rule handle it.
          return std::nullopt;
        }
        ctx.out.stage1_cascode = true;
        return core::PatchAction::restart_at(
            idx_icmr_hi,
            "cascoded the input stage (telescopic) for gain/phase");
      });

  // Phase margin still short: trade the GBW design margin away before
  // giving up.
  plan.add_rule("shave-gbw-margin",
                [idx_targets](OpAmpContext& ctx, const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "pm-shortfall") return std::nullopt;
                  if (ctx.bump("shave-gbw") > 1) return std::nullopt;
                  ctx.set("target_margin", 1.0);
                  return core::PatchAction::restart_at(
                      idx_targets, "dropped the GBW design margin");
                });

  // Ship a first-cut design when PM is close (paper case C behaviour).
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
            ctx, "pm",
            format("shipping first-cut design with PM %.0f deg vs spec "
                   "%.0f deg",
                   pm, ctx.spec.pm_min_deg));
        return core::PatchAction::proceed("accepted first-cut PM");
      });

  // Offset too large with a long-channel simple load: lengthening reduces
  // lambda and with it the Vds-mismatch error.
  plan.add_rule(
      "lengthen-load-for-offset",
      [idx_gain](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "offset-inherent" || ctx.out.stage1_cascode) {
          return std::nullopt;
        }
        if (ctx.bump("lengthen-load") > 2) return std::nullopt;
        // Re-run gain-length with a stiffer gain ask, which lengthens L.
        ctx.set("gm1_floor", ctx.get("gm1"));
        const double l_now = ctx.get_or("l_load", ctx.technology().lmin);
        const double l_new = l_now * 1.6;
        if (l_new > blocks::max_length(ctx.technology())) {
          return std::nullopt;
        }
        ctx.set("l1", l_new);
        ctx.set("l_load", l_new);
        return core::PatchAction::restart_at(
            idx_gain + 1, format("lengthened channels to %.1f um to shrink "
                                 "the mirror Vds-mismatch offset",
                                 util::in_um(l_new)));
      });

  // Noise over budget: a bigger input gm is the only real lever (noise
  // power scales as 1/gm1); the slew-driven tail current rises with it.
  plan.add_rule(
      "raise-gm1-for-noise",
      [idx_input_gm](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "noise-over") return std::nullopt;
        if (ctx.bump("gm1-noise") > 3) return std::nullopt;
        const double ratio =
            ctx.get("noise_pred") / ctx.spec.noise_max;
        ctx.set("gm1_floor", ctx.get("gm1") * ratio * ratio * 1.1);
        return core::PatchAction::restart_at(
            idx_input_gm, "raised the input gm to push thermal noise down");
      });

  // Power over budget: trim the design margins once.
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

OpAmpDesign design_one_stage_ota(const tech::Technology& t,
                                 const core::OpAmpSpec& spec,
                                 const SynthOptions& opts) {
  OpAmpContext ctx(t, spec, opts);
  static const core::Plan<OpAmpContext> plan = build_ota_plan();
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
