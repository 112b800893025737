#include "synth/mismatch.h"

#include <cmath>

#include "mos/design_eqs.h"
#include "spice/dc.h"
#include "synth/testbench.h"
#include "util/rng.h"

namespace oasys::synth {

double predict_random_offset_sigma(const OpAmpDesign& design,
                                   const tech::Technology& t) {
  // First-stage contributors: the input pair (direct) and the load-mirror
  // pair (scaled by gm_load/gm_input).  sigma(VT) per device; pairs add in
  // power as sqrt(2) * sigma.
  const blocks::SizedDevice* m1 = design.device("M1");
  if (m1 == nullptr) return 0.0;
  const tech::MosParams& pn =
      m1->type == mos::MosType::kNmos ? t.nmos : t.pmos;
  const double gm1 = mos::gm_from_id_vov(m1->id, m1->vov);
  const double s1 = pn.sigma_vt(m1->w * m1->m, m1->l);
  double var = 2.0 * s1 * s1;

  // Load mirror: either the op-amp's "ML_out" or the folded "MLF_out".
  const blocks::SizedDevice* m3 = design.device("ML_out");
  if (m3 == nullptr) m3 = design.device("MLF_out");
  if (m3 != nullptr && gm1 > 0.0) {
    const tech::MosParams& pl =
        m3->type == mos::MosType::kNmos ? t.nmos : t.pmos;
    const double gm3 = mos::gm_from_id_vov(m3->id, m3->vov);
    const double s3 = pl.sigma_vt(m3->w * m3->m, m3->l);
    const double scale = gm3 / gm1;
    var += 2.0 * scale * scale * s3 * s3;
  }
  return std::sqrt(var);
}

MismatchResult monte_carlo_offset(const OpAmpDesign& design,
                                  const tech::Technology& t,
                                  const MismatchOptions& opts) {
  MismatchResult result;
  if (!design.feasible) {
    result.error = "design is infeasible";
    return result;
  }

  // Shared open-loop bench; per-sample we only touch the dvt fields.
  // Every sample warm-starts its offset null from the nominal operating
  // point at vid = 0, so no solver state crosses samples.
  OpenLoopBench bench(design, t);
  ckt::Circuit& c = bench.circuit;
  std::vector<double> nominal;
  {
    const sim::OpResult op = sim::dc_operating_point(c, t, {});
    if (op.converged) nominal = op.solution;
  }

  std::vector<double> offsets;
  for (int sample = 0; sample < opts.samples; ++sample) {
    // Draw per-device threshold perturbations from each device's own
    // area-law sigma.  Each sample owns the counter-based stream
    // (seed, sample) — the same streams the yield subsystem draws from —
    // so a sample's perturbation is a pure function of (seed, sample
    // index), independent of how samples are partitioned or ordered.
    util::RngStream rng(opts.seed,
                        static_cast<std::uint64_t>(sample));
    for (const auto& m : c.mosfets()) {
      const tech::MosParams& p =
          m.type == mos::MosType::kNmos ? t.nmos : t.pmos;
      const double sigma =
          p.sigma_vt(m.geom.w * m.geom.m, m.geom.l);
      c.set_mosfet_dvt(m.name, sigma * rng.next_gauss());
    }
    const OffsetNull null = measure_offset(&bench, t, nominal);
    if (null.ok) offsets.push_back(null.vid);
  }

  if (offsets.size() < 3) {
    result.error = "too few converged Monte-Carlo samples";
    return result;
  }
  result.samples = static_cast<int>(offsets.size());
  double mean = 0.0;
  for (const double v : offsets) mean += v;
  mean /= offsets.size();
  double var = 0.0;
  double worst = 0.0;
  for (const double v : offsets) {
    var += (v - mean) * (v - mean);
    worst = std::max(worst, std::abs(v));
  }
  result.mean_offset = mean;
  result.sigma_offset = std::sqrt(var / (offsets.size() - 1));
  result.worst_offset = worst;
  result.ok = true;
  return result;
}

}  // namespace oasys::synth
