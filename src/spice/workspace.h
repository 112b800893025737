// Reusable scratch buffers for the Newton-based analyses.
//
// Every Newton iteration needs a Jacobian, a residual, a step vector, and
// an LU factorization; allocating them per iteration dominates runtime at
// op-amp-sized matrices.  A SimWorkspace owns one set of these buffers and
// is threaded through the DC solver (and reused across timesteps by the
// transient solver), so a converged solve performs zero heap allocations
// in steady state.
//
// The Jacobian is factored by a num::SparseLu in a plan (pivot order) made
// on the values of the analysis call's first Jacobian and replayed by every
// later iteration of that call; a pivot that fails the threshold re-plans
// on fresh values (factor_jacobian below).  Plan scope is one analysis call
// (a dc_operating_point, a transient run): each call starts from no plan or
// from a plan its caller hands it explicitly (a sweep's first point, a
// yield fixture's nominal point), never from whatever the workspace last
// held.
//
// Buffers grow on first use for a given system size and are reused
// allocation-free afterwards; reuse across different circuits is safe (the
// buffers resize).  Not thread-safe: use one workspace per thread or lane
// (see exec::parallel_for_lanes).  Workspace contents never carry numeric
// state between calls — results are bit-for-bit identical whether a
// workspace is fresh, reused, or absent, and so at every --jobs setting.
#pragma once

#include <vector>

#include "numeric/sparse_lu.h"
#include "spice/mna.h"

namespace oasys::sim {

struct SimWorkspace {
  num::RealMatrix jac;           // Newton Jacobian (eval fills/reuses)
  std::vector<double> residual;  // f(x)
  std::vector<double> step;      // RHS -f on entry to the solve, dx after
  num::SparsePattern pattern;    // structural pattern of jac, this call
  num::SparseLu lu;              // plan + factorization of jac
  std::vector<double> border;    // bordered solves: dx/dvid (J b = -df/dvid)
  // SoA MOS device table that NonlinearSystem::eval evaluates.
  // Rebuilt by each analysis for its own circuit before solving — cheap
  // constant fills, allocation-free at steady sizes — and re-biased in
  // place every eval.  Holds no cross-solve numeric state.
  DeviceTable devices;
};

// Counts one num::SparseLu event in the deterministic sim.lu.* counters.
enum class LuEvent { kAnalysis, kRefactor, kReplan };
void count_lu_event(LuEvent event);

// Factors ws->jac, which `assemble` has just filled, into ws->lu: a
// refactor in the current plan when there is one, else an analysis on
// these values.  A refactor that fails its pivot check has consumed the
// Jacobian, so `assemble` refills it and the plan is remade on the fresh
// values; the new plan holds for the rest of the call.  Returns false when
// the Jacobian is singular.
template <typename Assemble>
bool factor_jacobian(SimWorkspace* ws, const Assemble& assemble) {
  if (ws->lu.planned()) {
    count_lu_event(LuEvent::kRefactor);
    if (ws->lu.refactor(&ws->jac)) return true;
    count_lu_event(LuEvent::kReplan);
    assemble();
  }
  count_lu_event(LuEvent::kAnalysis);
  return ws->lu.analyse(ws->pattern, &ws->jac);
}

}  // namespace oasys::sim
