// Sweep drivers: repeated analyses while stepping one source's DC value.
//
//  * dc_sweep_vsource — operating points, each warm-started from the
//    previous point's solution and Newton LU plan (both make the points
//    order-dependent, so this driver is serial by construction);
//  * ac_sweep_vsource / tran_sweep_vsource — a full AC or transient run per
//    DC value.  Every point solves cold on a private copy of the circuit,
//    which makes points independent: they distribute over exec::parallel_for
//    lanes and land by index, identical at every jobs setting.
#pragma once

#include <string>
#include <vector>

#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/tran.h"

namespace oasys::sim {

struct DcSweepResult {
  bool ok = false;
  std::string error;
  std::vector<double> values;    // swept source DC values
  std::vector<OpResult> points;  // one converged OP per value (parallel)

  // Voltage of `node` across the sweep.
  std::vector<double> node_voltages(const MnaLayout& layout,
                                    ckt::NodeId node) const;
};

// Sweeps the DC value of the named voltage source over `values`.  The
// circuit is restored to its original state before returning.  Points that
// fail to converge abort the sweep (result.ok = false, error set).
DcSweepResult dc_sweep_vsource(ckt::Circuit& c, const tech::Technology& t,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const OpOptions& base_opts = {});

// One AC run per stepped DC value (bias sweeps, common-mode sweeps).
struct AcSweepResult {
  bool ok = false;
  std::string error;              // first failing point by index
  std::vector<double> values;     // swept source DC values
  std::vector<OpResult> ops;      // operating point per value (parallel)
  std::vector<AcResult> points;   // AC solution per value (parallel)
};

// Runs a cold operating point plus AC analysis over `freqs` at each DC
// value of the named source.  Points run on up to `jobs` threads
// (0 = exec::default_jobs()); a non-converged or failed point aborts with
// the lowest failing index reported in `error`.
AcSweepResult ac_sweep_vsource(const ckt::Circuit& c,
                               const tech::Technology& t,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const std::vector<double>& freqs,
                               const OpOptions& base_opts = {},
                               std::size_t jobs = 0);

// One transient run per stepped DC value (e.g. step response vs. bias).
struct TranSweepResult {
  bool ok = false;
  std::string error;
  std::vector<double> values;
  std::vector<OpResult> ops;
  std::vector<TranResult> runs;
};

// Runs a cold operating point plus transient integration at each DC value
// of the named source, with the same parallelism and failure rules as
// ac_sweep_vsource.
TranSweepResult tran_sweep_vsource(const ckt::Circuit& c,
                                   const tech::Technology& t,
                                   const std::string& source_name,
                                   const std::vector<double>& values,
                                   const TranOptions& tran_opts,
                                   const OpOptions& base_opts = {},
                                   std::size_t jobs = 0);

}  // namespace oasys::sim
