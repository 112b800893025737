// Batched (structure-of-arrays) evaluation of the MOS Level-1 core.
//
// `evaluate_core` in level1.h is the scalar reference: one device, one
// bias, branchy region logic.  This header provides the same model as a
// flat-array batch: all devices of a netlist (or all lanes of a sweep
// fan-out) are evaluated by one loop whose region logic is expressed as
// mask-selects over per-region arithmetic, so the compiler can
// auto-vectorize the cutoff/triode/saturation math (see the OASYS_SIMD
// cmake option).
//
// Equivalence contract: for every slot, every output of
// `evaluate_core_batch` is bit-for-bit identical to the corresponding
// field of `evaluate_core(p, g, bias)` — each per-region expression is
// written as the exact expression tree of the scalar reference (including
// the `std::max` operand order, which fixes the sign of zero), and the
// selects only choose which result is stored.  tests/test_mos_batch.cpp
// pins this per slot, and NonlinearSystem::eval against a per-device
// evaluate_terminal reference.
//
// Inputs are split into bias arrays (rewritten every Newton iteration) and
// device-constant arrays (geometry + effective model parameters, loaded
// once per device table build).  All arrays are plain std::vector<double>
// sized by resize(); steady-state re-evaluation touches no allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "mos/level1.h"

namespace oasys::mos {

struct CoreEvalBatch {
  // Per-iteration bias inputs, NMOS-like frame (see CoreBias): vds >= 0,
  // callers swap drain/source beforehand when needed.
  std::vector<double> vgs, vds, vbs;

  // Device-constant geometry inputs (m stored as double; it only ever
  // enters the model as a multiplier).
  std::vector<double> w, l, m;

  // Device-constant effective model parameters.  vt0 includes any
  // per-device mismatch shift; sqrt_phi = sqrt(phi) and
  // lambda = lambda_at(l) are precomputed at load time (both are exactly
  // the values the scalar path recomputes per call).
  std::vector<double> kp, vt0, gamma, phi, sqrt_phi, lambda;

  // Outputs, parallel to CoreEval fields.
  std::vector<double> id, gm, gds, gmb, vth, vov, vdsat;
  std::vector<std::uint8_t> region;  // static_cast<std::uint8_t>(Region)

  std::size_t size() const { return vgs.size(); }
  bool empty() const { return vgs.empty(); }

  // Sizes every array to n slots.  Only allocates when n grows past the
  // current capacity, so a table rebuilt at the same size is
  // allocation-free.
  void resize(std::size_t n);

  // Loads the device-constant slots for one device: validates the
  // geometry (throws std::invalid_argument on w <= 0, l <= 0, or m < 1;
  // see validate_geometry) and precomputes the derived parameters.  `dvt`
  // is the per-device threshold perturbation used by mismatch studies.
  void load_device(std::size_t i, const tech::MosParams& p,
                   const Geometry& g, double dvt = 0.0);

  Region region_at(std::size_t i) const {
    return static_cast<Region>(region[i]);
  }
};

// Evaluates every slot of `b`, writing the output arrays.  Branch-free in
// the region logic (mask-selects over per-region expressions); outputs are
// bit-for-bit identical to scalar evaluate_core per slot.
void evaluate_core_batch(CoreEvalBatch* b);

}  // namespace oasys::mos
