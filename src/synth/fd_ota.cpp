#include "synth/fd_ota.h"

#include <algorithm>
#include <cmath>

#include "numeric/interpolate.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/measure.h"
#include "spice/tran.h"
#include "synth/designer_common.h"
#include "synth/testbench.h"
#include "util/text.h"

namespace oasys::synth {

using util::format;

const blocks::SizedDevice* FdOtaDesign::device(
    const std::string& role) const {
  for (const auto& d : devices) {
    if (d.role == role) return &d;
  }
  return nullptr;
}

namespace {

struct FdContext : core::DesignContext {
  FdContext(const tech::Technology& t, const core::OpAmpSpec& s,
            const SynthOptions& o)
      : core::DesignContext(t), spec(s), opts(o) {
    out.spec = s;
  }
  core::OpAmpSpec spec;
  SynthOptions opts;
  FdOtaDesign out;
  blocks::DiffPairDesign pair;
  blocks::BiasChainDesign bias;

  double vdd() const { return technology().vdd; }
  double vss() const { return technology().vss; }
  double mid() const { return technology().mid_supply(); }
  double icmr_mid() const {
    return spec.icmr_lo != 0.0 || spec.icmr_hi != 0.0
               ? 0.5 * (spec.icmr_lo + spec.icmr_hi)
               : mid();
  }
};

core::Plan<FdContext> build_fd_plan() {
  core::Plan<FdContext> plan("fully-differential-ota");

  plan.add_step("derive-targets", [](FdContext& ctx) {
    const double margin = ctx.get_or("target_margin", 1.15);
    ctx.set("gbw_t", std::max(ctx.spec.gbw_min, util::khz(100.0)) * margin);
    ctx.set("sr_t", ctx.spec.slew_min * margin);
    return core::StepStatus::success();
  });

  plan.add_step("tail-current", [](FdContext& ctx) {
    // Each output's drive is limited to itail/2 (fixed load current), so
    // the per-side slew is itail / (2 CL).
    const double itail = std::max(
        2.0 * ctx.get("sr_t") * ctx.spec.cload, util::ua(4.0));
    ctx.set("itail", itail);
    return core::StepStatus::success();
  });

  plan.add_step("input-gm", [](FdContext& ctx) {
    double gm1 = util::kTwoPi * ctx.get("gbw_t") * ctx.spec.cload;
    gm1 = std::max(gm1, ctx.get("itail") / 0.6);
    gm1 = std::max(gm1, ctx.get_or("gm1_floor", 0.0));
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

  plan.add_step("load-headroom", [](FdContext& ctx) {
    // Per-side swing high: vdd - Vdsat of the load.
    const double budget = ctx.spec.swing_pos > 0.0
                              ? 0.9 * (ctx.vdd() - ctx.mid() -
                                       ctx.spec.swing_pos)
                              : 0.30;
    const double vov3 = std::clamp(budget, 0.0, 0.4);
    if (vov3 < blocks::kMinOverdrive) {
      return core::StepStatus::fail(
          "swing-high",
          format("per-side swing +%.2f V leaves %.0f mV for the load",
                 ctx.spec.swing_pos, util::in_mv(vov3)));
    }
    ctx.set("vov3", vov3);
    // Swing low: the pair saturation floor, one VT below the input CM.
    const double vgs1 = internal::input_pair_vgs(
        ctx.technology(), ctx.get("vov1"), ctx.icmr_mid());
    ctx.set("vgs1", vgs1);
    const double out_low = ctx.icmr_mid() - (vgs1 - ctx.get("vov1"));
    if (ctx.spec.swing_neg > 0.0 &&
        ctx.mid() - out_low < ctx.spec.swing_neg) {
      return core::StepStatus::fail(
          "swing-low",
          format("per-side swing floor %.2f V misses -%.2f V", out_low,
                 ctx.spec.swing_neg));
    }
    ctx.set("out_low", out_low);
    return core::StepStatus::success();
  });

  plan.add_step("gain-length", [](FdContext& ctx) {
    const auto& t = ctx.technology();
    const double av_req = util::from_db20(ctx.spec.gain_min_db + 1.0);
    // Per-side: gm1 * (ro1 || ro3); both lengths chosen together.
    const double lambda_tot = 2.0 / (av_req * ctx.get("vov1"));
    double l = std::max((t.nmos.lambda_l + t.pmos.lambda_l) / lambda_tot,
                        t.lmin);
    if (l > blocks::max_length(t)) {
      ctx.set("l_needed", l);
      return core::StepStatus::fail(
          "gain-shortfall",
          format("differential gain %.0f dB needs L = %.1f um > limit",
                 ctx.spec.gain_min_db, util::in_um(l)));
    }
    ctx.set("l1", l);
    return core::StepStatus::success();
  });

  plan.add_step("design-pair", [](FdContext& ctx) {
    blocks::DiffPairSpec ps;
    ps.type = mos::MosType::kNmos;
    ps.gm = ctx.get("gm1");
    ps.itail = ctx.get("itail");
    ps.l = ctx.get("l1");
    ps.vsb = ctx.icmr_mid() - ctx.get("vgs1") - ctx.vss();
    ctx.pair = blocks::design_diff_pair(ctx.technology(), ps);
    if (!ctx.pair.feasible) {
      return core::StepStatus::fail("pair-infeasible",
                                    ctx.pair.log.to_string());
    }
    return core::StepStatus::success();
  });

  plan.add_step("size-cm-network", [](FdContext& ctx) {
    const auto& t = ctx.technology();
    // Sense followers: modest bias, shifted reference computed from their
    // VGS at that bias.
    const double i_sf = util::ua(10.0);
    ctx.set("i_sf", i_sf);
    const double vov_sf = 0.25;
    ctx.set("vov_sf", vov_sf);
    // Follower output sits ~ mid - vgs_sf (body effect: source well below
    // mid-supply on +-5 V rails).
    const double vsb_sf =
        std::max(t.mid_supply() - mos::vgs_for(t.nmos, vov_sf, 0.0) -
                     t.vss,
                 0.0);
    const double vgs_sf = mos::vgs_for(t.nmos, vov_sf, vsb_sf);
    ctx.set("vgs_sf", vgs_sf);
    ctx.out.vcm_ref = t.mid_supply() - vgs_sf;
    // Averaging resistors: light load for the followers, and small enough
    // that the sense pole (Rcm/2 into the CMFB gate) sits well above the
    // CM loop's crossover.
    ctx.out.rcm = 200e3;
    // CMFB amplifier: a quarter of the tail current is plenty of loop gm.
    ctx.set("i_cmfb", std::max(0.25 * ctx.get("itail"), util::ua(5.0)));
    // The CMFB amp is diode-loaded, so the control node (vcmfb) is low
    // impedance and the loop's dominant pole is the output/CL pole — no
    // explicit compensation capacitor is needed.
    ctx.out.ccm = 0.0;
    return core::StepStatus::success();
  });

  plan.add_step("design-bias", [](FdContext& ctx) {
    blocks::BiasChainSpec bs;
    bs.style = ctx.opts.bias_style;
    bs.iref = std::clamp(ctx.get("itail"), util::ua(5.0), ctx.opts.iref);
    auto tap = [&](const char* role, double i) {
      blocks::BiasTap b;
      b.role = role;
      b.type = mos::MosType::kNmos;
      b.iout = i;
      b.compliance_max = 0.5;
      bs.taps.push_back(b);
    };
    tap("M5", ctx.get("itail"));
    tap("SFB1", ctx.get("i_sf"));
    tap("SFB2", ctx.get("i_sf"));
    tap("MC5", ctx.get("i_cmfb"));
    ctx.bias = blocks::design_bias_chain(ctx.technology(), bs);
    if (!ctx.bias.feasible) {
      return core::StepStatus::fail("bias-infeasible",
                                    ctx.bias.log.to_string());
    }
    ctx.out.iref = bs.iref;
    return core::StepStatus::success();
  });

  plan.add_step("assemble-devices", [](FdContext& ctx) {
    const auto& t = ctx.technology();
    auto& d = ctx.out.devices;
    d.clear();
    d.insert(d.end(), ctx.pair.devices.begin(), ctx.pair.devices.end());

    // Loads: PMOS current sources at vov3, gate driven by the CM loop.
    const double id3 = ctx.get("itail") / 2.0;
    const double vov3 = ctx.get("vov3");
    const double l3 = ctx.get("l1");
    const double w3 = std::max(
        mos::width_for_current(t, t.pmos, l3, id3, vov3), t.wmin);
    d.push_back({"ML3", mos::MosType::kPmos, w3, l3, 1, id3, vov3});
    d.push_back({"ML4", mos::MosType::kPmos, w3, l3, 1, id3, vov3});

    // Sense followers at minimum length.
    const double i_sf = ctx.get("i_sf");
    const double w_sf = std::max(
        mos::width_for_current(t, t.nmos, t.lmin, i_sf,
                               ctx.get("vov_sf")),
        t.wmin);
    d.push_back({"SF1", mos::MosType::kNmos, w_sf, t.lmin, 1, i_sf,
                 ctx.get("vov_sf")});
    d.push_back({"SF2", mos::MosType::kNmos, w_sf, t.lmin, 1, i_sf,
                 ctx.get("vov_sf")});

    // CMFB amplifier: NMOS pair + PMOS mirror, all at 2x Lmin.
    const double i_cm = ctx.get("i_cmfb");
    const double id_c = i_cm / 2.0;
    const double vov_c = 0.2;
    const double lc = 2.0 * t.lmin;
    const double w_c = std::max(
        mos::width_for_current(t, t.nmos, lc, id_c, vov_c), t.wmin);
    const double w_cm = std::max(
        mos::width_for_current(t, t.pmos, lc, id_c, vov3), t.wmin);
    d.push_back({"MC1", mos::MosType::kNmos, w_c, lc, 1, id_c, vov_c});
    d.push_back({"MC2", mos::MosType::kNmos, w_c, lc, 1, id_c, vov_c});
    d.push_back({"MC3", mos::MosType::kPmos, w_cm, lc, 1, id_c, vov3});
    d.push_back({"MC4", mos::MosType::kPmos, w_cm, lc, 1, id_c, vov3});

    // Bias chain devices (taps M5, SFB1, SFB2, MC5 and MB1...).
    d.insert(d.end(), ctx.bias.devices.begin(), ctx.bias.devices.end());
    return core::StepStatus::success();
  });

  plan.add_step("finalize", [](FdContext& ctx) {
    const auto& t = ctx.technology();
    FdOtaDesign& out = ctx.out;
    out.itail = ctx.get("itail");
    out.i_sf = ctx.get("i_sf");
    out.i_cmfb = ctx.get("i_cmfb");
    out.rref = ctx.bias.rref;
    out.ideal_bias_reference =
        ctx.bias.style == blocks::BiasStyle::kIdealReference;

    core::OpAmpPerformance& p = out.predicted;
    const double id1 = out.itail / 2.0;
    const double ro1 = ctx.pair.rout_drain;
    const double ro3 = mos::rout_sat(t.pmos.lambda_at(ctx.get("l1")), id1);
    p.gain_db = util::db20(ctx.get("gm1") * mos::parallel(ro1, ro3));
    p.gbw = ctx.get("gm1") / (util::kTwoPi * ctx.spec.cload);
    p.pm_deg = 85.0;  // single-stage, load compensated
    p.slew = out.itail / (2.0 * ctx.spec.cload);
    // With the CMFB holding the common mode at mid-supply, the outputs
    // move anti-symmetrically: each side's swing is bounded by the tighter
    // of the up-room and the down-room.
    const double up_room = ctx.vdd() - ctx.get("vov3") - ctx.mid();
    const double down_room = ctx.mid() - ctx.get("out_low");
    p.swing_pos = std::min(up_room, down_room);
    p.swing_neg = p.swing_pos;
    p.offset = 0.0;  // differential symmetry: no systematic offset
    p.icmr_lo = ctx.vss() + ctx.get("vgs1") + ctx.bias.vov;
    p.icmr_hi = ctx.vdd() - ctx.get("vov3") - 0.1 +
                (ctx.get("vgs1") - ctx.get("vov1"));
    const double chain =
        out.itail + 2.0 * out.i_sf + out.i_cmfb + ctx.bias.ibias_total;
    p.power = chain * t.supply_span();
    p.area = blocks::devices_area(t, out.devices) +
             t.capacitor_area(out.ccm);
    if (ctx.spec.power_max > 0.0 && p.power > ctx.spec.power_max) {
      return core::StepStatus::fail(
          "power-over", format("power %.2f mW exceeds budget",
                               util::in_mw(p.power)));
    }
    out.feasible = true;
    return core::StepStatus::success();
  });

  // ---- rules ----------------------------------------------------------------
  const std::size_t idx_targets = plan.step_index("derive-targets");
  const std::size_t plan_input_gm = plan.step_index("input-gm");

  plan.add_rule("raise-itail-for-gm",
                [](FdContext& ctx, const core::StepFailure& f)
                    -> std::optional<core::PatchAction> {
                  if (f.code != "vov1-floor") return std::nullopt;
                  if (ctx.bump("raise-itail") > 2) return std::nullopt;
                  ctx.set("itail",
                          ctx.get("gm1") * blocks::kMinOverdrive * 1.05);
                  return core::PatchAction::retry_step("raised tail current");
                });

  // Gain unreachable at the slew-driven overdrive: spend width (more gm at
  // the same current lowers Vov, which buys gain per unit channel length).
  plan.add_rule(
      "lower-vov-for-gain",
      [plan_input_gm](FdContext& ctx, const core::StepFailure& f)
          -> std::optional<core::PatchAction> {
        if (f.code != "gain-shortfall") return std::nullopt;
        if (ctx.bump("lower-vov") > 2) return std::nullopt;
        const double l_needed = ctx.get("l_needed");
        const double l_max = blocks::max_length(ctx.technology());
        const double vov_target =
            ctx.get("vov1") * (l_max / l_needed) * 0.95;
        if (vov_target < blocks::kMinOverdrive) {
          return core::PatchAction::abort(
              "gain needs an overdrive below the square-law floor");
        }
        ctx.set("gm1_floor", ctx.get("itail") / vov_target);
        return core::PatchAction::restart_at(
            plan_input_gm, "widened the pair (lower Vov) to buy gain");
      });

  plan.add_rule("trim-margins-for-power",
                [idx_targets](FdContext& ctx, const core::StepFailure& f)
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

FdOtaDesign design_fd_ota(const tech::Technology& t,
                          const core::OpAmpSpec& spec,
                          const SynthOptions& opts) {
  FdContext ctx(t, spec, opts);
  static const core::Plan<FdContext> plan = build_fd_plan();
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

BuiltFdOta build_fd_ota(const FdOtaDesign& d, const tech::Technology& t,
                        ckt::Circuit& c) {
  (void)t;
  auto need = [&](const char* role) -> const blocks::SizedDevice& {
    const blocks::SizedDevice* dev = d.device(role);
    if (dev == nullptr) {
      throw std::logic_error(std::string("fd design missing role ") + role);
    }
    return *dev;
  };
  BuiltFdOta nodes;
  nodes.vdd = c.node("vdd");
  nodes.vss = c.node("vss");
  nodes.inp = c.node("inp");
  nodes.inn = c.node("inn");
  nodes.outp = c.node("outp");
  nodes.outm = c.node("outm");
  const auto tail = c.node("tail");
  const auto vbn = c.node("vbn");
  const auto vcmfb = c.node("vcmfb");
  const auto vsense = c.node("vsense");
  const auto sfp = c.node("sfp");
  const auto sfm = c.node("sfm");

  auto add = [&](const blocks::SizedDevice& dev, ckt::NodeId dr,
                 ckt::NodeId g, ckt::NodeId s, ckt::NodeId b) {
    c.add_mosfet(dev.role, dr, g, s, b, dev.type, dev.w, dev.l, dev.m);
  };

  // Bias chain.
  add(need("MB1"), vbn, vbn, nodes.vss, nodes.vss);
  if (d.ideal_bias_reference || d.rref <= 0.0) {
    c.add_isource("IREF", nodes.vdd, vbn, ckt::Waveform::dc(d.iref));
  } else {
    c.add_resistor("RREF", nodes.vdd, vbn, d.rref);
  }
  add(need("M5"), tail, vbn, nodes.vss, nodes.vss);
  add(need("SFB1"), sfm, vbn, nodes.vss, nodes.vss);
  add(need("SFB2"), sfp, vbn, nodes.vss, nodes.vss);

  // Signal path: raising inp raises i1, pulling outm down -> positive
  // differential gain from (inp - inn) to (outp - outm).
  add(need("M1"), nodes.outm, nodes.inp, tail, nodes.vss);
  add(need("M2"), nodes.outp, nodes.inn, tail, nodes.vss);
  add(need("ML3"), nodes.outm, vcmfb, nodes.vdd, nodes.vdd);
  add(need("ML4"), nodes.outp, vcmfb, nodes.vdd, nodes.vdd);

  // CM sense: followers buffer the outputs into the averaging resistors.
  add(need("SF1"), nodes.vdd, nodes.outm, sfm, nodes.vss);
  add(need("SF2"), nodes.vdd, nodes.outp, sfp, nodes.vss);
  c.add_resistor("RCM1", sfm, vsense, d.rcm);
  c.add_resistor("RCM2", sfp, vsense, d.rcm);

  // CMFB amplifier: compares the sensed CM to the shifted reference.
  // Diode-loaded on both sides: the vcmfb node is low impedance (1/gm of
  // MC4), so the loads mirror MC4's branch current and the CM loop's
  // dominant pole stays at the outputs (sensed CM up -> MC2 current down
  // -> |VSG(MC4)| down -> vcmfb up -> load current down -> CM down).
  const auto q1 = c.node("q1");
  const auto ctail = c.node("ctail");
  add(need("MC5"), ctail, vbn, nodes.vss, nodes.vss);
  add(need("MC1"), q1, vsense, ctail, nodes.vss);
  add(need("MC2"), vcmfb, c.node("vcmref"), ctail, nodes.vss);
  add(need("MC3"), q1, q1, nodes.vdd, nodes.vdd);
  add(need("MC4"), vcmfb, vcmfb, nodes.vdd, nodes.vdd);
  c.add_vsource("VCMREF", c.node("vcmref"), ckt::kGround,
                ckt::Waveform::dc(d.vcm_ref));
  if (d.ccm > 0.0) {
    c.add_capacitor("CCM", vcmfb, nodes.vss, d.ccm);
  }
  return nodes;
}

FdOtaBench fd_ota_bench(const FdOtaDesign& design,
                        const tech::Technology& t) {
  FdOtaBench b;
  ckt::Circuit& c = b.circuit;
  b.nodes = build_fd_ota(design, t, c);
  c.add_vsource("VDD", b.nodes.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
  c.add_vsource("VSS", b.nodes.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
  b.vcm = input_common_mode(design.spec, t);
  c.add_vsource("VIP", b.nodes.inp, ckt::kGround,
                ckt::Waveform::ac(b.vcm, 0.5, 0.0));
  c.add_vsource("VIN", b.nodes.inn, ckt::kGround,
                ckt::Waveform::ac(b.vcm, 0.5, 180.0));
  if (design.spec.cload > 0.0) {
    c.add_capacitor("CLP", b.nodes.outp, ckt::kGround, design.spec.cload);
    c.add_capacitor("CLM", b.nodes.outm, ckt::kGround, design.spec.cload);
  }
  b.fmin = std::max(design.predicted.gbw /
                        util::from_db20(design.predicted.gain_db) / 30.0,
                    1e-2);
  b.freqs = num::logspace(b.fmin, 1e9, 101);
  return b;
}

CmStepBench cm_step_bench(const FdOtaDesign& design,
                          const tech::Technology& t, double gbw) {
  CmStepBench b;
  ckt::Circuit& tc = b.circuit;
  const BuiltFdOta& tn = b.nodes = build_fd_ota(design, t, tc);
  tc.add_vsource("VDD", tn.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
  tc.add_vsource("VSS", tn.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
  const double vcm = input_common_mode(design.spec, t);
  const double t_settle = 30.0 / std::max(gbw, 1e5);
  const ckt::Waveform step = ckt::Waveform::pulse(
      vcm, vcm + 0.2, t_settle * 0.1, 1e-9, 1e-9, t_settle * 2.0,
      t_settle * 4.0);
  tc.add_vsource("VSTEP", tn.inp, ckt::kGround, step);
  // The other input follows the same CM step.
  tc.add_vsource("VSTEP2", tn.inn, ckt::kGround, step);
  if (design.spec.cload > 0.0) {
    tc.add_capacitor("CLP", tn.outp, ckt::kGround, design.spec.cload);
    tc.add_capacitor("CLM", tn.outm, ckt::kGround, design.spec.cload);
  }
  b.tran.tstop = t_settle;
  b.tran.dt = t_settle / 500.0;
  return b;
}

std::optional<double> cm_step_drift(const CmStepBench& b,
                                    const tech::Technology& t,
                                    const sim::TranOptions& tran) {
  const sim::OpResult op = sim::dc_operating_point(b.circuit, t);
  if (!op.converged) return std::nullopt;
  const sim::TranResult tr = sim::transient(b.circuit, t, op, tran);
  if (!tr.ok) return std::nullopt;
  const sim::MnaLayout tl(b.circuit);
  const auto cm = [&](std::size_t i) {
    return 0.5 * (tr.voltage(tl, i, b.nodes.outp) +
                  tr.voltage(tl, i, b.nodes.outm));
  };
  return std::abs(cm(tr.time.size() - 1) - cm(0));
}

MeasuredFdOta measure_fd_ota(const FdOtaDesign& design,
                             const tech::Technology& t) {
  MeasuredFdOta m;
  if (!design.feasible) {
    m.error = "design is infeasible";
    return m;
  }
  FdOtaBench bench = fd_ota_bench(design, t);
  ckt::Circuit& c = bench.circuit;
  const BuiltFdOta& nodes = bench.nodes;
  const double vcm = bench.vcm;
  const double fmin = bench.fmin;
  const sim::MnaLayout layout(c);

  const sim::OpResult op = sim::dc_operating_point(c, t);
  if (!op.converged) {
    m.error = "operating point did not converge";
    return m;
  }
  const double mid = t.mid_supply();
  const double cm_level = 0.5 * (op.voltage(layout, nodes.outp) +
                                 op.voltage(layout, nodes.outm));
  m.cm_error = std::abs(cm_level - mid);

  // Differential AC: v(outp) - v(outm) under anti-phase drive.
  const sim::OpenLoopMetrics ol =
      sim::open_loop_metrics(c, op, bench.freqs, {nodes.outp, nodes.outm});
  if (!ol.ok) {
    m.error = "AC analysis failed: " + ol.error;
    return m;
  }
  m.gain_db = ol.metrics.dc_gain_db;
  m.gbw = ol.metrics.unity_gain_freq.value_or(0.0);
  m.pm_deg = ol.metrics.phase_margin_deg.value_or(0.0);

  // CMRR: in-phase drive, differential output.
  {
    ckt::Circuit& cc = c;
    cc.vsource(*cc.find_vsource("VIN")).wave =
        cc.vsource(*cc.find_vsource("VIN")).wave.with_ac(0.5, 0.0);
    const sim::AcResult accm = sim::ac_analysis(cc, t, op, {fmin});
    if (accm.ok) {
      const double acm = std::abs(accm.voltage(layout, 0, nodes.outp) -
                                  accm.voltage(layout, 0, nodes.outm));
      if (acm > 0.0) m.cmrr_db = m.gain_db - util::db20(acm);
    }
    cc.vsource(*cc.find_vsource("VIN")).wave =
        cc.vsource(*cc.find_vsource("VIN")).wave.with_ac(0.5, 180.0);
  }

  // Swing: large differential overdrive.
  {
    sim::OpOptions oo;
    oo.initial_guess = op.solution;
    c.vsource(*c.find_vsource("VIP")).wave = ckt::Waveform::dc(vcm + 0.25);
    c.vsource(*c.find_vsource("VIN")).wave = ckt::Waveform::dc(vcm - 0.25);
    const sim::OpResult hi = sim::dc_operating_point(c, t, oo);
    if (hi.converged) {
      m.swing_pos = hi.voltage(layout, nodes.outp) - mid;
      m.swing_neg = mid - hi.voltage(layout, nodes.outm);
    }
    c.vsource(*c.find_vsource("VIP")).wave =
        ckt::Waveform::ac(vcm, 0.5, 0.0);
    c.vsource(*c.find_vsource("VIN")).wave =
        ckt::Waveform::ac(vcm, 0.5, 180.0);
  }

  // CM-loop stability: a common-mode input step must settle back without
  // sustained ringing.
  {
    const CmStepBench cb = cm_step_bench(design, t, m.gbw);
    if (const auto drift = cm_step_drift(cb, t, cb.tran)) {
      m.cm_loop_settles = *drift < 0.25;
    }
  }

  m.ok = true;
  return m;
}

}  // namespace oasys::synth
