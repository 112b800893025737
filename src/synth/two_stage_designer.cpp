#include "synth/two_stage_designer.h"

#include <algorithm>
#include <cmath>

#include "synth/designer_common.h"
#include "util/text.h"

namespace oasys::synth {

namespace {

using internal::OpAmpContext;
using util::format;

// Phase-budget split between the second pole and the RHP zero when sizing
// the compensation network.
constexpr double kP2PhaseShare = 0.75;
constexpr double kMinCc = 0.5e-12;

// Phase-budget reserve for the non-dominant parasitic poles.  A cascoded
// first stage brings extra poles (input cascodes, level shifter), so the
// compensation step reserves more when the structure has grown.
double phase_reserve_deg(const OpAmpContext& ctx) {
  return ctx.out.stage1_cascode ? 16.0 : 6.0;
}

// Stage-1 output DC level at the balance point (both branches matched):
// one or two diode drops below VDD depending on the load-mirror style.
double stage1_balance_level(const OpAmpContext& ctx) {
  const double vsg3 = ctx.pmosp().vt0 + ctx.load.vov;
  const int stack = ctx.out.stage1_cascode ? 2 : 1;
  return ctx.vdd() - stack * vsg3;
}

core::Plan<OpAmpContext> build_two_stage_plan() {
  core::Plan<OpAmpContext> plan("two-stage");

  // ---- targets ------------------------------------------------------------
  plan.add_step("derive-targets", [](OpAmpContext& ctx) {
    const auto& s = ctx.spec;
    const double margin = ctx.get_or("target_margin", 1.15);
    ctx.set("gbw_t", std::max(s.gbw_min, util::khz(100.0)) * margin);
    ctx.set("sr_t", s.slew_min * margin);
    ctx.set("pm_t", s.pm_min_deg > 0.0 ? s.pm_min_deg + 4.0 : 49.0);
    ctx.out.style = OpAmpStyle::kTwoStage;
    return core::StepStatus::success();
  });

  // ---- compensation (one level above the sub-blocks, per the paper) -------
  plan.add_step("compensation", [](OpAmpContext& ctx) {
    const double pm_t = std::min(ctx.get("pm_t"), 80.0);
    const double budget_deg =
        std::max(90.0 - pm_t - phase_reserve_deg(ctx), 8.0);
    const double phi_p2 = util::rad(budget_deg * kP2PhaseShare);
    const double phi_z = util::rad(budget_deg * (1.0 - kP2PhaseShare));
    // p2 = gm6/CL at gbw/tan(phi_p2); z = gm6/Cc at gbw/tan(phi_z).
    const double wt = util::kTwoPi * ctx.get("gbw_t");
    const double gm6_scale = ctx.get_or("gm6_boost", 1.0);
    const double gm6 = gm6_scale * wt * ctx.spec.cload / std::tan(phi_p2);
    // Cc is not scaled with the gm6 boost: boosting gm6 then moves both
    // the output pole (gm6/CL) and the RHP zero (gm6/Cc) outward.
    const double cc = std::max(
        ctx.spec.cload * std::tan(phi_z) / std::tan(phi_p2), kMinCc);
    ctx.set("gm6_req", gm6);
    ctx.set("cc", cc);
    ctx.log().info("compensation",
                   format("Cc = %.2f pF, gm6 target = %.0f uS",
                          util::in_pf(cc), gm6 * 1e6));
    return core::StepStatus::success();
  });

  plan.add_step("first-stage-current", [](OpAmpContext& ctx) {
    // Internal slew: I5 = SR * Cc.
    const double i5 = std::max(1.1 * ctx.get("sr_t") * ctx.get("cc"),
                               util::ua(2.0));
    ctx.set("i5", i5);
    return core::StepStatus::success();
  });

  plan.add_step("input-gm", [](OpAmpContext& ctx) {
    // GBW = gm1 / (2 pi Cc).
    double gm1 = util::kTwoPi * ctx.get("gbw_t") * ctx.get("cc");
    gm1 = std::max(gm1, ctx.get("i5") / 0.6);  // overdrive cap at 0.6 V
    gm1 = std::max(gm1, ctx.get_or("gm1_floor", 0.0));  // noise rule hook
    ctx.set("gm1", gm1);
    const double vov1 = ctx.get("i5") / gm1;
    if (vov1 < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "vov1-floor",
          format("pair overdrive %.0f mV below the square-law floor",
                 util::in_mv(vov1)));
    }
    ctx.set("vov1", vov1);
    return core::StepStatus::success();
  });

  // ---- gain partition (the paper's sqrt heuristic + rule-skewing) ----------
  plan.add_step("gain-partition", [](OpAmpContext& ctx) {
    const double av_total = util::from_db20(ctx.spec.gain_min_db + 1.0);
    const double skew = ctx.get_or("partition_skew", 0.5);
    const double av1_t = std::pow(av_total, skew);
    ctx.set("av_total", av_total);
    ctx.set("av1_t", av1_t);
    ctx.log().info("partition",
                   format("gain partition: stage1 %.1f dB, stage2 %.1f dB "
                          "(skew %.2f)",
                          util::db20(av1_t), util::db20(av_total / av1_t),
                          skew));
    return core::StepStatus::success();
  });

  plan.add_step("icmr", [](OpAmpContext& ctx) {
    const double vov1 = ctx.get("vov1");
    // Top of the range: load-branch |VSG| budget (x1 or x2 diode drops).
    if (!ctx.icmr_constrained()) {
      ctx.set("vov3_budget", 0.25);
      ctx.set("tail_compliance", 0.4);
      return core::StepStatus::success();
    }
    const double vgs1_hi =
        internal::input_pair_vgs(ctx.technology(), vov1, ctx.icmr_hi());
    const int stack = ctx.out.stage1_cascode ? 2 : 1;
    const double vsg_budget =
        (ctx.vdd() - ctx.icmr_hi() + (vgs1_hi - vov1)) / stack;
    const double vov3 = std::min(vsg_budget - ctx.pmosp().vt0, 0.4);
    if (vov3 < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "icmr-high",
          format("common-mode top %.2f V leaves load overdrive %.0f mV",
                 ctx.icmr_hi(), util::in_mv(vov3)));
    }
    // Bottom of the range: tail compliance.
    const double vgs1_lo =
        internal::input_pair_vgs(ctx.technology(), vov1, ctx.icmr_lo());
    const double tail_budget = ctx.icmr_lo() - ctx.vss() - vgs1_lo;
    const double tail_need =
        ctx.out.tail_cascode
            ? ctx.nmosp().vt0 + 2.0 * blocks::kMinOverdrive
            : blocks::kMinOverdrive;
    if (tail_budget < tail_need) {
      return core::StepStatus::fail(
          "icmr-low",
          format("common-mode bottom %.2f V leaves %.0f mV for the tail",
                 ctx.icmr_lo(), util::in_mv(tail_budget)));
    }
    const double vov3_floor = ctx.get_or("vov3_floor", 0.0);
    ctx.set("vov3_budget", std::max(vov3, vov3_floor));
    if (vov3_floor > vov3) {
      ctx.log().warning("icmr-tight",
                        "load overdrive floor (level-shifter headroom) "
                        "narrows the specified common-mode top");
    }
    ctx.set("tail_compliance", tail_budget);
    return core::StepStatus::success();
  });

  // ---- stage 1 -------------------------------------------------------------
  plan.add_step("stage1-length", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    const double vov1 = ctx.get("vov1");
    if (!ctx.out.stage1_cascode) {
      const double lambda_tot = 2.0 / (ctx.get("av1_t") * vov1);
      double l = std::max((t.nmos.lambda_l + t.pmos.lambda_l) / lambda_tot,
                          t.lmin);
      if (l > blocks::max_length(t)) {
        return core::StepStatus::fail(
            "stage1-gain",
            format("stage-1 gain %.1f dB needs L = %.1f um > limit",
                   util::db20(ctx.get("av1_t")), util::in_um(l)));
      }
      ctx.set("l1", l);
    } else {
      ctx.set("l1", t.lmin);
    }
    return core::StepStatus::success();
  });

  plan.add_step("design-pair", [](OpAmpContext& ctx) {
    blocks::DiffPairSpec ps;
    ps.type = mos::MosType::kNmos;
    ps.gm = ctx.get("gm1");
    ps.itail = ctx.get("i5");
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

  plan.add_step("design-load-mirror", [](OpAmpContext& ctx) {
    const double id1 = ctx.get("i5") / 2.0;
    blocks::CurrentMirrorSpec ms;
    ms.role_prefix = "ML";
    ms.type = mos::MosType::kPmos;
    ms.iin = id1;
    ms.iout = id1;
    ms.rout_min = 2.0 * ctx.get("av1_t") / ctx.get("gm1");
    ms.compliance_max =
        ctx.out.stage1_cascode
            ? ctx.pmosp().vt0 + 2.0 * ctx.get("vov3_budget")
            : ctx.get("vov3_budget") / 0.9;
    ms.vds_out_nominal = ctx.pmosp().vt0 + ctx.get("vov3_budget");
    const blocks::MirrorStyle style = ctx.out.stage1_cascode
                                          ? blocks::MirrorStyle::kCascode
                                          : blocks::MirrorStyle::kSimple;
    ctx.load = blocks::design_mirror_style(ctx.technology(), ms, style);
    if (!ctx.load.feasible) {
      return core::StepStatus::fail("load-infeasible",
                                    ctx.load.log.to_string());
    }
    const double av1 =
        ctx.get("gm1") * mos::parallel(ctx.pair.rout_drain, ctx.load.rout);
    ctx.set("av1", av1);
    if (av1 < ctx.get("av1_t") * 0.95) {
      return core::StepStatus::fail(
          "stage1-gain", format("achieved stage-1 gain %.1f dB < target "
                                "%.1f dB",
                                util::db20(av1),
                                util::db20(ctx.get("av1_t"))));
    }
    return core::StepStatus::success();
  });

  // ---- stage 2 -------------------------------------------------------------
  plan.add_step("stage2-translate", [](OpAmpContext& ctx) {
    const double gm6 = ctx.get("gm6_req");
    // Swing-high budget bounds the gain device's overdrive (an extra Vdsat
    // when the gain device itself is cascoded).
    const double headroom =
        ctx.vdd() - (ctx.mid() + ctx.spec.swing_pos);
    const double split = ctx.out.stage2_cascode_gm ? 2.0 : 1.0;
    double vov6_max =
        ctx.spec.swing_pos > 0.0 ? 0.9 * headroom / split : 0.45;
    vov6_max = std::min(vov6_max, 0.45);
    if (vov6_max < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "swing-high",
          format("swing +%.2f V leaves %.0f mV for the gain device",
                 ctx.spec.swing_pos, util::in_mv(vov6_max * split)));
    }
    // Level-shifter compatibility may cap vov6 (set by its patch rule).
    const double vov6_cap = ctx.get_or("vov6_cap", vov6_max);
    double vov6 = std::min({vov6_max, vov6_cap, 0.4});
    double i6 = mos::id_for_gm_vov(gm6, vov6);
    // Output slew: the second stage must also move Cc + CL.
    const double i6_slew =
        1.05 * ctx.get("sr_t") * (ctx.spec.cload + ctx.get("cc"));
    if (i6 < i6_slew) {
      i6 = i6_slew;
      vov6 = 2.0 * i6 / gm6;
      if (vov6 > vov6_max || vov6 > vov6_cap) {
        return core::StepStatus::fail(
            "slew-swing-conflict",
            format("slew needs %.0f uA pushing Vov6 to %.2f V beyond the "
                   "budget %.2f V",
                   util::in_ua(i6), vov6, std::min(vov6_max, vov6_cap)));
      }
    }
    ctx.set("vov6", vov6);
    ctx.set("i6", i6);
    ctx.set("av2_req", ctx.get("av_total") / ctx.get("av1"));
    return core::StepStatus::success();
  });

  plan.add_step("stage2-length", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    const double i6 = ctx.get("i6");
    const double gm6 = ctx.get("gm6_req");
    const double r2_needed = ctx.get("av2_req") / gm6;
    double l6;
    if (!ctx.out.stage2_cascode_load && !ctx.out.stage2_cascode_gm) {
      // R2 = 1 / ((lambda6 + lambda7) * I6).
      const double lambda_tot = 1.0 / (r2_needed * i6);
      l6 = std::max((t.pmos.lambda_l + t.nmos.lambda_l) / lambda_tot,
                    t.lmin);
    } else if (!ctx.out.stage2_cascode_gm) {
      // Sink cascoded: R2 ~ ro6 alone.
      const double lambda6 = 1.0 / (r2_needed * i6);
      l6 = std::max(t.pmos.lambda_l / lambda6, t.lmin);
    } else {
      // Both cascoded: check achievable at minimum length.
      l6 = t.lmin;
      const double vov6 = ctx.get("vov6");
      const double gm_c = mos::gm_from_id_vov(i6, vov6);
      const double ro6 = mos::rout_sat(t.pmos.lambda_at(l6), i6);
      const double r_up = mos::rout_cascode(gm_c, ro6, ro6);
      if (r_up < r2_needed * 2.0) {
        return core::StepStatus::fail(
            "gain-unreachable",
            format("stage-2 gain %.1f dB unreachable even fully cascoded",
                   util::db20(ctx.get("av2_req"))));
      }
    }
    if (l6 > blocks::max_length(t)) {
      return core::StepStatus::fail(
          "stage2-gain",
          format("stage-2 gain %.1f dB needs L = %.1f um > limit",
                 util::db20(ctx.get("av2_req")), util::in_um(l6)));
    }
    ctx.set("l6", l6);
    return core::StepStatus::success();
  });

  plan.add_step("design-gm-stage", [](OpAmpContext& ctx) {
    blocks::GmStageSpec gs;
    gs.type = mos::MosType::kPmos;
    gs.gm = ctx.get("gm6_req");
    gs.id = ctx.get("i6");
    gs.l = ctx.get("l6");
    gs.style = ctx.out.stage2_cascode_gm ? blocks::GmStageStyle::kCascode
                                         : blocks::GmStageStyle::kCommonSource;
    gs.vov_max = ctx.get("vov6") * 1.02;
    ctx.gm2 = blocks::design_gm_stage(ctx.technology(), gs);
    if (!ctx.gm2.feasible) {
      return core::StepStatus::fail("gmstage-infeasible",
                                    ctx.gm2.log.to_string());
    }
    return core::StepStatus::success();
  });

  // ---- inter-stage DC matching / level shifter ------------------------------
  plan.add_step("level-match", [](OpAmpContext& ctx) {
    ctx.ls = blocks::LevelShifterDesign{};  // reset on re-entry
    ctx.out.has_level_shifter = false;
    ctx.out.ils = 0.0;
    const double x1 = stage1_balance_level(ctx);
    const double gate6 = ctx.vdd() - ctx.gm2.vgs;
    const double delta = gate6 - x1;  // >0: must shift x1 up
    ctx.set("level_delta", delta);
    // The stage-1 output may sit away from its balance level only within
    // the load's saturation window: one |VT| upward before the mirror's
    // output device (or its cascode) triodes, and down to the input
    // branch's own saturation floor.  Inside the window the mismatch is
    // absorbed as systematic offset; outside it the level shifter is
    // structurally required (the paper's case C move).
    const double kSatMargin = 0.05;
    const double slack_up = ctx.pmosp().vt0 - kSatMargin;
    const double x1_min = ctx.icmr_mid() - ctx.get("vgs1") +
                          ctx.pair.branch_headroom + kSatMargin;
    if (delta <= slack_up && gate6 >= x1_min) {
      const double offset_from_delta = std::abs(delta) / ctx.get("av1");
      const double offset_budget = ctx.spec.offset_max > 0.0
                                       ? 0.5 * ctx.spec.offset_max
                                       : util::mv(5.0);
      if (offset_from_delta <= offset_budget) {
        ctx.set("offset_pred", offset_from_delta);
        return core::StepStatus::success();
      }
    }
    if (delta <= 0.0) {
      // Stage-1 output above the required gate level: an NMOS follower
      // would shift down; not needed for this topology family because the
      // simple-load level sits within a Vov of the target.
      return core::StepStatus::fail(
          "level-mismatch-down",
          format("stage-1 output %.2f V above second-stage gate", -delta));
    }
    blocks::LevelShifterSpec lss;
    lss.type = mos::MosType::kPmos;  // shifts up; body tied to source
    lss.shift = delta;
    lss.cload = ctx.gm2.cgs;
    lss.pole_min = 8.0 * ctx.get("gbw_t");
    ctx.ls = blocks::design_level_shifter(ctx.technology(), lss);
    if (!ctx.ls.feasible) {
      return core::StepStatus::fail(
          "level-shift-infeasible",
          format("needed shift %.2f V: %s", delta,
                 ctx.ls.log.to_string().c_str()));
    }
    ctx.out.has_level_shifter = true;
    ctx.out.ils = ctx.ls.ibias;
    const double residual = std::abs(ctx.ls.shift - delta);
    ctx.set("offset_pred", residual / ctx.get("av1"));
    ctx.log().info("level-shifter",
                   format("inserted PMOS follower shifting +%.2f V "
                          "(%.1f uA)",
                          ctx.ls.shift, util::in_ua(ctx.ls.ibias)));
    return core::StepStatus::success();
  });

  plan.add_step("offset-check", [](OpAmpContext& ctx) {
    const double offset = ctx.get("offset_pred");
    if (ctx.spec.offset_max > 0.0 && offset > ctx.spec.offset_max) {
      return core::StepStatus::fail(
          "offset", format("systematic offset %.2f mV exceeds %.2f mV",
                           util::in_mv(offset),
                           util::in_mv(ctx.spec.offset_max)));
    }
    return core::StepStatus::success();
  });

  // ---- bias and output swing -----------------------------------------------
  plan.add_step("consider-tail-cascode", [](OpAmpContext& ctx) {
    // Aggressive designs benefit from a cascoded tail (the paper's case C
    // cascodes the input current bias); do it opportunistically when the
    // first stage is already cascoded and the ICMR budget allows.
    if (ctx.out.stage1_cascode && !ctx.out.tail_cascode) {
      const double budget = ctx.get("tail_compliance");
      if (budget >= ctx.nmosp().vt0 + 2.0 * blocks::kMinOverdrive + 0.05) {
        ctx.out.tail_cascode = true;
        ctx.log().info("tail-cascode",
                       "cascoded the tail current source (input bias)");
      }
    }
    return core::StepStatus::success();
  });

  plan.add_step("design-bias", [](OpAmpContext& ctx) {
    blocks::BiasChainSpec bs;
    bs.style = ctx.opts.bias_style;
    bs.iref = std::clamp(ctx.get("i5"), util::ua(5.0), ctx.opts.iref);
    blocks::BiasTap tail;
    tail.role = "M5";
    tail.type = mos::MosType::kNmos;
    tail.iout = ctx.get("i5");
    tail.cascode = ctx.out.tail_cascode;
    tail.compliance_max = ctx.get("tail_compliance");
    bs.taps.push_back(tail);

    blocks::BiasTap sink;
    sink.role = "M7";
    sink.type = mos::MosType::kNmos;
    sink.iout = ctx.get("i6");
    sink.cascode = ctx.out.stage2_cascode_load;
    // Swing-low budget: the output must fall to mid - swing_neg.
    sink.compliance_max =
        ctx.spec.swing_neg > 0.0
            ? (ctx.mid() - ctx.spec.swing_neg) - ctx.vss()
            : 0.0;
    // When the sink is the cascoded "output load mirror", it must carry
    // its share of the stage-2 resistance.
    if (ctx.out.stage2_cascode_load) {
      sink.rout_min = 0.0;  // cascode rout is far beyond ro6 already
    } else {
      sink.rout_min = 2.0 * ctx.get("av2_req") / ctx.get("gm6_req");
    }
    bs.taps.push_back(sink);

    if (ctx.out.has_level_shifter) {
      blocks::BiasTap ls_src;
      ls_src.role = "MLSB";
      ls_src.type = mos::MosType::kPmos;
      ls_src.iout = ctx.ls.ibias;
      ls_src.compliance_max = 0.0;
      bs.taps.push_back(ls_src);
    }
    ctx.bias = blocks::design_bias_chain(ctx.technology(), bs);
    if (!ctx.bias.feasible) {
      const bool swing_issue =
          ctx.bias.log.contains_code("bias-compliance") &&
          ctx.spec.swing_neg > 0.0;
      return core::StepStatus::fail(
          swing_issue ? "swing-low" : "bias-infeasible",
          ctx.bias.log.to_string());
    }
    ctx.out.iref = bs.iref;
    return core::StepStatus::success();
  });

  // ---- phase margin ----------------------------------------------------------
  plan.add_step("pm-check", [](OpAmpContext& ctx) {
    const auto& t = ctx.technology();
    const double gbw = ctx.get("gbw_t");
    const double gm6 = ctx.gm2.gm;
    // Output pole and RHP zero of the Miller stage.
    const double p2 = gm6 / (util::kTwoPi * ctx.spec.cload);
    const double z = gm6 / (util::kTwoPi * ctx.get("cc"));
    double pm = 90.0 - internal::pole_phase_deg(gbw, p2) -
                internal::pole_phase_deg(gbw, z);
    // Load-mirror pole.
    const double id1 = ctx.get("i5") / 2.0;
    const double gm3 = mos::gm_from_id_vov(id1, ctx.load.vov);
    const blocks::SizedDevice& mdev = ctx.load.devices.front();
    const double cgs3 = mos::cgs_sat(t, t.pmos, {mdev.w, mdev.l, mdev.m});
    const double p_mirror = gm3 / (util::kTwoPi * 2.0 * cgs3);
    pm -= internal::pole_phase_deg(gbw, p_mirror);
    ctx.set("p_mirror", p_mirror);
    // Input-cascode pole when telescopic.
    if (ctx.out.stage1_cascode) {
      const double gm_c = mos::gm_from_id_vov(id1, ctx.get("vov1"));
      for (const auto& d : ctx.pair.devices) {
        if (d.role == "M1C") {
          const double cgs_c = mos::cgs_sat(t, t.nmos, {d.w, d.l, d.m});
          pm -= internal::pole_phase_deg(
              gbw, gm_c / (util::kTwoPi * cgs_c));
        }
      }
    }
    // Level-shifter pole.
    if (ctx.out.has_level_shifter && ctx.ls.pole > 0.0) {
      pm -= internal::pole_phase_deg(gbw, ctx.ls.pole);
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
    // Noise is set by the first stage (the second stage's contribution is
    // divided by the stage-1 gain): pair plus mirror load.
    const double gm1 = ctx.get("gm1");
    const double id1 = ctx.get("i5") / 2.0;
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

  // ---- budgets and assembly ---------------------------------------------------
  plan.add_step("power-area-check", [](OpAmpContext& ctx) {
    const double supply_current = ctx.get("i5") + ctx.get("i6") +
                                  ctx.out.ils + ctx.bias.ibias_total;
    const double power = supply_current * ctx.technology().supply_span();
    ctx.set("power_pred", power);
    if (ctx.spec.power_max > 0.0 && power > ctx.spec.power_max) {
      return core::StepStatus::fail(
          "power-over", format("power %.2f mW exceeds %.2f mW",
                               util::in_mw(power),
                               util::in_mw(ctx.spec.power_max)));
    }
    internal::collect_devices(ctx);
    const double area =
        blocks::devices_area(ctx.technology(), ctx.out.devices) +
        ctx.technology().capacitor_area(ctx.get("cc"));
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
    out.cc = ctx.get("cc");
    out.itail = ctx.get("i5");
    out.i2 = ctx.get("i6");
    out.rref = ctx.bias.rref;
    out.ideal_bias_reference =
        ctx.bias.style == blocks::BiasStyle::kIdealReference;

    if (out.stage1_cascode) {
      const double vtail = ctx.icmr_mid() - ctx.get("vgs1");
      const double vd1 = vtail + ctx.get("vov1") + 0.10;
      const double vsb_c = std::max(vd1 - ctx.vss(), 0.0);
      out.vb_cascode_n =
          vd1 + mos::vgs_for(t.nmos, ctx.get("vov1"), vsb_c);
    }
    if (out.stage2_cascode_gm) {
      // Gate bias for the stacked PMOS gain cascode: one Vdsat plus margin
      // below the gain device's source follower point.
      const double vov6 = ctx.get("vov6");
      const double n6 = ctx.vdd() - vov6 - 0.05;
      out.vb_cascode_p = n6 - mos::vgs_for(t.pmos, vov6, 0.0);
    }

    core::OpAmpPerformance& p = out.predicted;
    const double av1 = ctx.get("av1");
    // Stage 2: gain device in parallel with the sink tap.
    const double r_sink = ctx.bias.tap_rout.size() > 1
                              ? ctx.bias.tap_rout[1]
                              : ctx.gm2.rout;
    const double av2 = ctx.gm2.gm * mos::parallel(ctx.gm2.rout, r_sink);
    p.gain_db = util::db20(av1 * av2);
    p.gbw = ctx.get("gm1") / (util::kTwoPi * out.cc);
    p.pm_deg = ctx.get("pm_pred");
    p.slew = std::min(ctx.get("i5") / out.cc,
                      ctx.get("i6") / (ctx.spec.cload + out.cc));
    // Output swing: gain-device Vdsat up, sink compliance down.
    p.swing_pos = ctx.vdd() - ctx.gm2.swing_loss - ctx.mid();
    const double sink_compliance =
        out.stage2_cascode_load ? t.nmos.vt0 + 2.0 * ctx.bias.vov
                                : ctx.bias.vov;
    p.swing_neg = ctx.mid() - (ctx.vss() + sink_compliance);
    p.offset = ctx.get("offset_pred");
    p.icmr_lo = ctx.vss() + ctx.get("vgs1") +
                (out.tail_cascode ? t.nmos.vt0 + 2.0 * ctx.bias.vov
                                  : ctx.bias.vov);
    const int stack = out.stage1_cascode ? 2 : 1;
    p.icmr_hi = ctx.vdd() - stack * (t.pmos.vt0 + ctx.load.vov) +
                (ctx.get("vgs1") - ctx.get("vov1"));
    p.power = ctx.get("power_pred");
    p.area = ctx.get("area_pred");
    const double gm3 = mos::gm_from_id_vov(ctx.get("i5") / 2.0,
                                           ctx.load.vov);
    const double rtail =
        ctx.bias.tap_rout.empty() ? 0.0 : ctx.bias.tap_rout.front();
    if (rtail > 0.0) {
      p.cmrr_db = util::db20(av1 * av2 * 2.0 * gm3 * rtail /
                             std::max(av2, 1.0));
    }
    p.psrr_db = p.gain_db;
    p.noise_in = ctx.get_or("noise_pred", 0.0);
    out.feasible = true;
    return core::StepStatus::success();
  });

  // ========================== patch rules ===================================
  const std::size_t idx_targets = plan.step_index("derive-targets");
  const std::size_t idx_comp = plan.step_index("compensation");
  const std::size_t idx_input_gm = plan.step_index("input-gm");
  const std::size_t idx_stage2 = plan.step_index("stage2-translate");
  const std::size_t idx_icmr = plan.step_index("icmr");

  // Slew set I5 too low for the gm1 overdrive floor: raise I5.
  plan.add_rule("raise-i5-for-gm",
                [](OpAmpContext& ctx, const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "vov1-floor") return std::nullopt;
                  if (ctx.bump("raise-i5") > 2) return std::nullopt;
                  const double i5 =
                      ctx.get("gm1") * blocks::kMinOverdrive * 1.05;
                  ctx.set("i5", i5);
                  return core::PatchAction::retry_step(format(
                      "raised I5 to %.1f uA", util::in_ua(i5)));
                });

  // The paper's flagship rule: a stage's gain target is unreachable in its
  // current configuration -> cascode the first stage, skew the partition
  // toward it, and restart from the partition step.
  plan.add_rule(
      "cascode-stage1",
      [idx_comp](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "stage1-gain" || ctx.out.stage1_cascode) {
          return std::nullopt;
        }
        ctx.out.stage1_cascode = true;
        ctx.set("partition_skew", 0.62);
        // Restart from compensation: the new structure carries more
        // parasitic poles, so the phase budget must be re-reserved.
        return core::PatchAction::restart_at(
            idx_comp,
            "cascoded stage 1 and skewed the gain partition toward it");
      });

  // Phase margin killed by a long-channel load mirror: cascoding the first
  // stage gets the gain from stacking instead of channel length, restoring
  // the mirror pole.  Checked before the gm6 boost because gm6 cannot move
  // the mirror pole.
  plan.add_rule(
      "cascode-stage1-for-pm",
      [idx_comp](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "pm-shortfall" || ctx.out.stage1_cascode) {
          return std::nullopt;
        }
        const double p_mirror = ctx.get_or("p_mirror", 0.0);
        const double gbw = ctx.get("gbw_t");
        // Only when the mirror pole steals more phase than a gm6 boost can
        // buy back; moderate theft is left to the boost rule so ordinary
        // specs keep the simple (cheaper) first stage.
        if (p_mirror <= 0.0 ||
            internal::pole_phase_deg(gbw, p_mirror) < 18.0) {
          return std::nullopt;
        }
        ctx.out.stage1_cascode = true;
        ctx.set("partition_skew", 0.62);
        return core::PatchAction::restart_at(
            idx_comp,
            "cascoded stage 1: short-channel load restores the mirror pole");
      });

  // Stage-2 gain shortfall: first cascode the output sink ("output load
  // mirror" in the paper's words), then the gain device itself.
  plan.add_rule(
      "cascode-stage2-load",
      [idx_stage2](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "stage2-gain" || ctx.out.stage2_cascode_load) {
          return std::nullopt;
        }
        ctx.out.stage2_cascode_load = true;
        return core::PatchAction::restart_at(
            idx_stage2, "cascoded the output load mirror");
      });
  plan.add_rule(
      "cascode-stage2-gm",
      [idx_stage2](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "stage2-gain" || !ctx.out.stage2_cascode_load ||
            ctx.out.stage2_cascode_gm) {
          return std::nullopt;
        }
        ctx.out.stage2_cascode_gm = true;
        return core::PatchAction::restart_at(
            idx_stage2, "cascoded the stage-2 gain device");
      });

  // Level shifter can't realize the needed shift because the required
  // |VSG| is too close to VT: raise the load-mirror overdrive (one diode
  // each) to enlarge the shift, or cap Vov6 to shrink the gate target.
  plan.add_rule(
      "retune-for-level-shift",
      [idx_icmr](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "level-shift-infeasible") return std::nullopt;
        if (ctx.bump("retune-ls") > 2) return std::nullopt;
        const double vov3 = ctx.get("vov3_budget");
        ctx.set("vov3_floor", vov3 + 0.07);
        ctx.set("vov6_cap", std::max(ctx.get("vov6") - 0.05,
                                     blocks::kMinOverdrive));
        return core::PatchAction::restart_at(
            idx_icmr, "raised load overdrive / capped Vov6 to make the "
                      "level shift realizable");
      });

  // Slew forces more stage-2 current than the swing budget allows at the
  // current gm6: boost gm6 so the overdrive falls back into budget.
  plan.add_rule(
      "raise-gm6-for-slew",
      [idx_stage2](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "slew-swing-conflict") return std::nullopt;
        if (ctx.bump("gm6-slew") > 3) return std::nullopt;
        ctx.set("gm6_req", ctx.get("gm6_req") * 1.4);
        return core::PatchAction::restart_at(
            idx_stage2, "raised gm6 to hold Vov6 within the swing budget");
      });

  // Phase margin short with healthy mirror pole: boost gm6 (moves both the
  // output pole and the RHP zero out), re-running stage 2.
  plan.add_rule(
      "boost-gm6-for-pm",
      [idx_comp](OpAmpContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "pm-shortfall") return std::nullopt;
        if (ctx.bump("gm6-boost-count") > 3) return std::nullopt;
        ctx.set("gm6_boost", ctx.get_or("gm6_boost", 1.0) * 1.3);
        return core::PatchAction::restart_at(
            idx_comp, "boosted gm6 to push the output pole and zero out");
      });

  // First-cut acceptance for PM (paper case C ships 32 vs 45 deg).
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

  // Noise over budget: raise the input gm (GBW margin simply grows).
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

  // Power over budget: drop the design margins once and replan.
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

OpAmpDesign design_two_stage(const tech::Technology& t,
                             const core::OpAmpSpec& spec,
                             const SynthOptions& opts) {
  OpAmpContext ctx(t, spec, opts);
  static const core::Plan<OpAmpContext> plan = build_two_stage_plan();
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
