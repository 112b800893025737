// Reusable scratch buffers for the Newton-based analyses.
//
// Every Newton iteration needs a Jacobian, a residual, a step vector, and
// an LU factorization; allocating them per iteration dominates runtime at
// op-amp-sized matrices, where the O(n^3) factor itself is tiny.  A
// SimWorkspace owns one set of these buffers and is threaded through the
// DC solver (and reused across timesteps by the transient solver), so a
// converged solve performs zero heap allocations in steady state.
//
// Buffers grow on first use for a given system size and are reused
// allocation-free afterwards; reuse across different circuits is safe (the
// buffers resize).  Not thread-safe: use one workspace per thread or lane
// (see exec::parallel_for_lanes).  Workspace contents never carry numeric
// state between solves — results are bit-for-bit identical whether a
// workspace is fresh, reused, or absent.
#pragma once

#include <vector>

#include "numeric/linear.h"
#include "spice/mna.h"

namespace oasys::sim {

struct SimWorkspace {
  num::RealMatrix jac;           // Newton Jacobian (eval fills/reuses)
  std::vector<double> residual;  // f(x)
  std::vector<double> step;      // RHS -f on entry to the solve, dx after
  num::LuFactors<double> lu;     // factorization of jac
  std::vector<double> border;    // bordered solves: dx/dvid (J b = -df/dvid)
  // SoA MOS device table that NonlinearSystem::eval evaluates.
  // Rebuilt by each analysis for its own circuit before solving — cheap
  // constant fills, allocation-free at steady sizes — and re-biased in
  // place every eval.  Holds no cross-solve numeric state.
  DeviceTable devices;
};

}  // namespace oasys::sim
