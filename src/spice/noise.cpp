#include "spice/noise.h"

#include <algorithm>
#include <cmath>

#include "obs/span.h"
#include "util/units.h"

namespace oasys::sim {

double NoiseResult::integrated_rms() const {
  double total = 0.0;
  for (std::size_t i = 1; i < freqs.size(); ++i) {
    total += 0.5 * (output_psd[i] + output_psd[i - 1]) *
             (freqs[i] - freqs[i - 1]);
  }
  return std::sqrt(total);
}

std::vector<NoiseSource> noise_sources(const ckt::Circuit& c,
                                       const tech::Technology& t,
                                       const OpResult& op) {
  std::vector<NoiseSource> sources;
  const double four_kt = 4.0 * util::kBoltzmann * util::kRoomTempK;

  for (const auto& r : c.resistors()) {
    NoiseSource s;
    s.element = r.name;
    s.kind = "thermal";
    s.a = r.a;
    s.b = r.b;
    s.white_psd = four_kt / r.resistance;
    sources.push_back(s);
  }
  for (std::size_t k = 0; k < c.mosfets().size(); ++k) {
    const auto& m = c.mosfets()[k];
    const DeviceOp& d = op.devices[k];
    if (d.region == mos::Region::kCutoff) continue;
    const tech::MosParams& p =
        m.type == mos::MosType::kNmos ? t.nmos : t.pmos;
    // Channel thermal noise: 4kT*(2/3)*gm in saturation; in triode the
    // channel is a resistor of conductance gds: 4kT*gds.
    NoiseSource th;
    th.element = m.name;
    th.kind = "thermal";
    th.a = m.d;
    th.b = m.s;
    th.white_psd = d.region == mos::Region::kSaturation
                       ? four_kt * (2.0 / 3.0) * d.gm
                       : four_kt * d.gds;
    sources.push_back(th);
    // Flicker: kf * Id^af / (Cox * L^2 * f).
    if (p.kf > 0.0 && d.id > 0.0) {
      NoiseSource fl;
      fl.element = m.name;
      fl.kind = "flicker";
      fl.a = m.d;
      fl.b = m.s;
      fl.flicker_num = p.kf * std::pow(d.id, p.af) /
                       (t.cox * m.geom.l * m.geom.l);
      sources.push_back(fl);
    }
  }
  return sources;
}

namespace {

// The analysis behind both noise_analysis overloads.
NoiseResult run_noise(const AcKernel& kernel, const ckt::Circuit& c,
                      const tech::Technology& t, const OpResult& op,
                      ckt::NodeId output, const std::vector<double>& freqs) {
  NoiseResult result;
  const MnaLayout& layout = kernel.layout();
  const int iout = layout.node_index(output);
  if (iout < 0) {
    result.error = "noise output node must not be ground";
    return result;
  }
  const std::vector<NoiseSource> sources = noise_sources(c, t, op);

  result.freqs = freqs;
  result.output_psd.assign(freqs.size(), 0.0);
  std::vector<double> last_contrib(sources.size(), 0.0);

  // One adjoint solve per frequency gives the output's transfer from
  // every unknown: a unit current a -> b (leaves a, enters b) reaches the
  // output as u[b] - u[a].
  using Cplx = std::complex<double>;
  AcPointScratch ws;
  std::vector<Cplx> u;
  auto at = [&u, &layout](ckt::NodeId node) {
    const int i = layout.node_index(node);
    return i >= 0 ? u[static_cast<std::size_t>(i)] : Cplx{};
  };
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const double f = freqs[fi];
    if (!(f > 0.0)) {
      result.error = "noise frequency must be positive";
      return result;
    }
    if (!kernel.transfer_row(f, static_cast<std::size_t>(iout), &ws, &u)) {
      result.error = "singular noise matrix";
      return result;
    }
    double psd = 0.0;
    for (std::size_t si = 0; si < sources.size(); ++si) {
      const NoiseSource& s = sources[si];
      const double z2 = std::norm(at(s.b) - at(s.a));
      const double contrib = z2 * s.psd(f);
      psd += contrib;
      last_contrib[si] = contrib;
    }
    result.output_psd[fi] = psd;
  }

  // Rank contributors at the last analysis frequency.
  std::vector<std::size_t> order(sources.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return last_contrib[a] > last_contrib[b];
  });
  const std::size_t top = std::min<std::size_t>(order.size(), 8);
  for (std::size_t i = 0; i < top; ++i) {
    result.top_contributors.push_back({sources[order[i]].element,
                                       sources[order[i]].kind,
                                       last_contrib[order[i]]});
  }
  result.ok = true;
  return result;
}

}  // namespace

NoiseResult noise_analysis(const ckt::Circuit& c, const tech::Technology& t,
                           const OpResult& op, ckt::NodeId output,
                           const std::vector<double>& freqs) {
  OBS_SPAN("sim/noise_analysis");
  NoiseResult result;
  AcKernel kernel;
  if (const char* error = kernel.assemble(c, op)) {
    result.error = error;
    return result;
  }
  return run_noise(kernel, c, t, op, output, freqs);
}

NoiseResult noise_analysis(const AcKernel& kernel, const ckt::Circuit& c,
                           const tech::Technology& t, const OpResult& op,
                           ckt::NodeId output,
                           const std::vector<double>& freqs) {
  OBS_SPAN("sim/noise_analysis");
  return run_noise(kernel, c, t, op, output, freqs);
}

}  // namespace oasys::sim
