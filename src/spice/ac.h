// Small-signal AC analysis.
//
// Linearizes every MOSFET at a previously computed DC operating point
// (conductances gm/gds/gmb in terminal form, Meyer gate capacitances, and
// junction capacitances at the bias), then solves the complex MNA system at
// each requested frequency.  Independent sources contribute their AC
// phasors; DC-only sources are AC shorts (V) or opens (I).
//
// Every AC point, whether it belongs to a full sweep (ac_analysis) or to
// the lazy open-loop walk (sim::open_loop_metrics in spice/measure.h),
// goes through one per-point kernel, AcKernel: G, C and the excitation are
// stamped once per operating point, and each point factors its own
// Y = G + j2πfC.  Points are independent, so a point's phasors do not
// depend on which other points were solved, or in which order.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "numeric/linear.h"
#include "spice/dc.h"

namespace oasys::sim {

// Scratch of one AC point: the complex MNA matrix and its factorization.
// One per lane; fully overwritten by every solve.
struct AcPointScratch {
  num::ComplexMatrix y;
  num::LuFactors<std::complex<double>> lu;
};

// The per-point AC kernel of one operating point.  assemble() stamps G, C
// and the AC excitation vector; solve() then runs one frequency.  Storage
// is reused across assemble() calls, so a kernel kept in per-lane scratch
// is allocation-free once warm.  The small-signal model comes entirely
// from op.devices: no technology or device evaluation is needed.
class AcKernel {
 public:
  // Stamps `c` at `op`, which must be converged and match the circuit.
  // Returns nullptr on success, else the reason ("operating point did not
  // converge" or "operating point does not match circuit").
  const char* assemble(const ckt::Circuit& c, const OpResult& op);

  // Factors G + j2πfC (f in Hz, > 0) in `ws` and solves for the phasors
  // into `*x` (resized to the layout).  Returns false when the matrix is
  // singular; `*x` is then unspecified.
  bool solve(double f, AcPointScratch* ws,
             std::vector<std::complex<double>>* x) const;

  const MnaLayout& layout() const { return layout_; }

 private:
  MnaLayout layout_;
  num::RealMatrix g_;
  num::RealMatrix cap_;
  std::vector<std::complex<double>> rhs_;
};

struct AcResult {
  bool ok = false;
  std::string error;
  std::vector<double> freqs;  // Hz
  // Phasor solution per frequency point (raw unknown vectors).
  std::vector<std::vector<std::complex<double>>> solutions;

  std::complex<double> voltage(const MnaLayout& layout, std::size_t freq_idx,
                               ckt::NodeId n) const {
    return layout.voltage(solutions.at(freq_idx), n);
  }
};

// Runs AC analysis over `freqs` (Hz, each > 0).  `op` must be a converged
// operating point for the same circuit; `t` is not read (the model comes
// from op.devices).  Frequency points are independent solves and run on up
// to `jobs` threads (0 = exec::default_jobs(), 1 = serial); solutions land
// by point index, so the result is identical at every jobs setting.
// Counts one sim.ac.sweeps and freqs.size() sim.ac.points.
AcResult ac_analysis(const ckt::Circuit& c, const tech::Technology& t,
                     const OpResult& op, const std::vector<double>& freqs,
                     std::size_t jobs = 0);

}  // namespace oasys::sim
