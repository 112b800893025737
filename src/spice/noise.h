// Small-signal noise analysis.
//
// Each resistor contributes thermal current noise 4kT/R and each saturated
// MOSFET contributes channel thermal noise 4kT*(2/3)*gm plus flicker noise
// kf*Id^af/(Cox*L^2*f), all modelled as current sources across their
// conducting terminals.  Every source reads the same output node, so each
// frequency costs one adjoint solve on the AC kernel
// (AcKernel::transfer_row): it gives the output's transfer from every
// unknown at once, and a source's transfer impedance is the difference of
// two of its entries.  A point costs one O(n^2) solve plus O(1) per
// source, instead of one LU solve per source.  Each call records a
// sim/noise_analysis span.
//
// Output-referred noise is the PSD sum; input-referred noise divides by
// |H(f)|^2 of the chosen input source's transfer function, which the
// caller supplies via the differential gain response.
#pragma once

#include <string>
#include <vector>

#include "spice/ac.h"

namespace oasys::sim {

struct NoiseContribution {
  std::string element;   // element name
  std::string kind;      // "thermal" or "flicker"
  double psd = 0.0;      // output-referred [V^2/Hz] at the last frequency
};

// One noise source: a current source between two nodes with a
// frequency-dependent PSD [A^2/Hz].
struct NoiseSource {
  std::string element;
  std::string kind;
  ckt::NodeId a = ckt::kGround;  // current injected a -> b
  ckt::NodeId b = ckt::kGround;
  double white_psd = 0.0;    // frequency-independent part [A^2/Hz]
  double flicker_num = 0.0;  // flicker numerator: psd = flicker_num / f

  double psd(double f) const { return white_psd + flicker_num / f; }
};

// The noise sources of `c` linearized at `op` (op.devices must match the
// circuit), in the order noise_analysis sums them.
std::vector<NoiseSource> noise_sources(const ckt::Circuit& c,
                                       const tech::Technology& t,
                                       const OpResult& op);

struct NoiseResult {
  bool ok = false;
  std::string error;
  std::vector<double> freqs;          // Hz
  std::vector<double> output_psd;     // [V^2/Hz] per frequency
  // Largest contributors at the highest analysis frequency, sorted
  // descending (diagnostic for the designer's noise budget).
  std::vector<NoiseContribution> top_contributors;

  // Output-referred RMS noise integrated across the analysis band using
  // trapezoidal integration of the PSD [V].
  double integrated_rms() const;
};

// Computes output-referred noise at `output` across `freqs` for the
// circuit linearized at `op`.
NoiseResult noise_analysis(const ckt::Circuit& c, const tech::Technology& t,
                           const OpResult& op, ckt::NodeId output,
                           const std::vector<double>& freqs);

// The same analysis on a kernel already assembled from `c` at `op`.
NoiseResult noise_analysis(const AcKernel& kernel, const ckt::Circuit& c,
                           const tech::Technology& t, const OpResult& op,
                           ckt::NodeId output,
                           const std::vector<double>& freqs);

}  // namespace oasys::sim
