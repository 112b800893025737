// Small-signal MNA assembly for the AC kernel (spice/ac.h): the real
// conductance matrix G (device transconductances, resistors, source
// branches) and the capacitance matrix C of the pencil Y = G + jwC.
#pragma once

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

}  // namespace oasys::sim
