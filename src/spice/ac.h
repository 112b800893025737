// Small-signal AC analysis.
//
// Linearizes every MOSFET at a previously computed DC operating point
// (conductances gm/gds/gmb in terminal form, Meyer gate capacitances, and
// junction capacitances at the bias), then solves the complex MNA system at
// each requested frequency.  Independent sources contribute their AC
// phasors; DC-only sources are AC shorts (V) or opens (I).
//
// Every AC point, whether it belongs to a full sweep (ac_analysis), the
// lazy open-loop walk (sim::open_loop_metrics in spice/measure.h) or a
// noise analysis (spice/noise.h), goes through one kernel, AcKernel.  Once
// per operating point it stamps G and C and reduces the pencil to
// Hessenberg-triangular form with Givens rotations (the first stage of
// QZ; Golub & Van Loan, Alg. 7.7.1; Laub, IEEE TAC 26(2), 1981):
//
//   Q^T G Z = H (upper Hessenberg),   Q^T C Z = T (upper triangular).
//
// A point then solves (H + jwT) y = Q^T b in O(n^2) and returns x = Z y,
// instead of factoring a dense n x n complex LU; the transposed solve
// gives one output's transfer from every excitation at once
// (transfer_row), which is all noise needs.  G is never inverted, so a
// singular C (every MNA branch row) is fine.  The reduction is backward
// stable but not the LU's arithmetic: solutions agree with a dense
// per-point LU to within 1e-6 normwise (2e-7 worst seen, at 0.05 Hz on a
// 135 dB design), not bit for bit (tests/test_ac_kernel.cpp).  Points are
// independent, so a point's phasors do not depend on which other points
// were solved, or in which order.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "numeric/matrix.h"
#include "spice/dc.h"

namespace oasys::sim {

// Scratch of one AC point: H + jwT eliminated in place to U, and the
// record of that elimination.  Complex matrices and vectors are held as
// separate real and imaginary parts.  One per lane; fully overwritten by
// every solve, and allocation-free once sized.
struct AcPointScratch {
  num::RealMatrix u_re, u_im;                   // upper triangle holds U
  std::vector<std::complex<double>> inv_pivot;  // 1 / U(k, k)
  std::vector<std::complex<double>> mult;       // step k's multiplier
  std::vector<char> swapped;                    // step k exchanged k, k+1
  std::vector<double> y_re, y_im;               // reduced coordinates
};

// The AC kernel of one operating point.  assemble() stamps and reduces
// the pencil; solve() then runs one frequency, and transfer_row() one
// adjoint.  Storage is reused across assemble() calls, so a kernel kept in
// per-lane scratch is allocation-free once warm.  The small-signal model
// comes entirely from op.devices: no technology or device evaluation is
// needed.
class AcKernel {
 public:
  // Stamps `c` at `op`, which must be converged and match the circuit,
  // and reduces the pencil.  Returns nullptr on success, else the reason
  // ("operating point did not converge" or "operating point does not
  // match circuit").
  const char* assemble(const ckt::Circuit& c, const OpResult& op);

  // Solves (G + j2pifC) x = b at `f` (Hz, > 0) for the circuit's AC
  // excitation b, into `*x` (resized to the layout).  Eliminates
  // H + jwT with partial pivoting between adjacent rows.  Returns false
  // when a pivot is zero or not finite (a singular matrix); `*x` is then
  // unspecified.
  bool solve(double f, AcPointScratch* ws,
             std::vector<std::complex<double>>* x) const;

  // The adjoint row of unknown `out` (an MNA index) at `f`: sets `*u` so
  // that x[out] = sum_k u[k] r[k] for the solution x of
  // (G + j2pifC) x = r, for any excitation r.  One O(n^2) solve of
  // (H + jwT)^T s = Z^T e_out, then u = Q s.  Returns false exactly when
  // solve() would.
  bool transfer_row(double f, std::size_t out, AcPointScratch* ws,
                    std::vector<std::complex<double>>* u) const;

  const MnaLayout& layout() const { return layout_; }

 private:
  // Fills H + jwT into ws and eliminates it; false on a singular pivot.
  bool eliminate(double f, AcPointScratch* ws) const;

  MnaLayout layout_;
  num::RealMatrix h_;   // G, reduced in place to H
  num::RealMatrix t_;   // C, reduced in place to T
  num::RealMatrix qt_;  // Q^T
  num::RealMatrix zt_;  // Z^T
  std::vector<std::complex<double>> qtb_;  // Q^T b
  std::vector<double> column_;             // column rotation scratch
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

// The same sweep on an assembled kernel, so one reduction can serve
// several analyses of one operating point (measure_opamp runs its sweep,
// CMRR, PSRR and noise on one).  Counts as above.
AcResult ac_analysis(const AcKernel& kernel, const std::vector<double>& freqs,
                     std::size_t jobs = 0);

}  // namespace oasys::sim
