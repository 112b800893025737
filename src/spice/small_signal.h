// Shared small-signal MNA assembly for AC and noise analyses: the real
// conductance matrix G (device transconductances, resistors, source
// branches) and the capacitance matrix C, combined per frequency as
// Y = G + jwC.
#pragma once

#include <complex>
#include <cstddef>

#include "numeric/matrix.h"
#include "spice/dc.h"

namespace oasys::sim {

// Fills `g` and `cap` (resized to layout.size(), zeroed in place when they
// already have that size); requires op.devices to match the circuit.
// Includes the small stabilizing shunt on every node.
//
// The G stamps come from op.devices, the batch kernel's outputs at the
// operating point, so the small-signal model needs no device evaluation.
void build_small_signal_matrices(const ckt::Circuit& c,
                                 const MnaLayout& layout, const OpResult& op,
                                 num::RealMatrix* g, num::RealMatrix* cap);

// Per-point lane fill shared by the AC and noise loops: y[k] = g[k] +
// jw*cap[k] over the n^2 flat row-major slots.  Unit-stride, no aliasing
// between the three arrays — the loop auto-vectorizes under OASYS_SIMD.
inline void fill_complex_mna(std::complex<double>* y, const double* g,
                             const double* cap, double w, std::size_t n2) {
  for (std::size_t k = 0; k < n2; ++k) {
    y[k] = std::complex<double>(g[k], w * cap[k]);
  }
}

}  // namespace oasys::sim
