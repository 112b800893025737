// Dense LU factorization with partial pivoting and linear solves.
//
// The reference the simulator's solvers are checked and timed against.
// DC and transient Newton factor their real Jacobians with num::SparseLu
// (numeric/sparse_lu.h): a pivot plan made on the values of an analysis
// call's first Jacobian, replayed by every later iteration of that call
// and handed on only explicitly, so results never depend on what a
// workspace solved before or on --jobs.  AC and noise solve a reduced
// pencil (sim::AcKernel in spice/ac.h).  The real instantiation stays as
// the reference for the sparse LU, the complex one for the AC kernel.
//
// Two API levels:
//  * in-place   — lu_factor_in_place / lu_solve_in_place reuse the caller's
//                 matrix storage, permutation vectors, and RHS buffer, so a
//                 hot loop (Newton iteration, per-frequency solve) performs
//                 zero heap allocations in steady state;
//  * by-value   — lu_factor / lu_solve / solve, thin wrappers over the
//                 in-place kernels for one-shot callers.  Both levels run
//                 the identical arithmetic, so results are bit-for-bit
//                 interchangeable.
#pragma once

#include <complex>
#include <stdexcept>
#include <vector>

#include "numeric/matrix.h"

namespace oasys::num {

// Thrown by every solve entry point (lu_solve on a singular factorization,
// one-shot solve on a singular matrix) so callers can catch one type
// regardless of which path they took.  Derives from std::runtime_error,
// which singular solves historically threw from solve().
class SingularMatrixError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Result of an in-place LU factorization (PA = LU).
template <typename T>
struct LuFactors {
  Matrix<T> lu;                   // combined L (unit diagonal) and U
  std::vector<std::size_t> perm;  // row permutation: row i reads b[perm[i]]
  // The same permutation as an in-order swap sequence (LAPACK ipiv style):
  // elimination step k exchanged rows k and pivots[k].  lu_solve_in_place
  // replays these swaps to permute the RHS without scratch storage.
  std::vector<std::size_t> pivots;
  bool singular = false;
  double min_pivot_magnitude = 0.0;  // smallest |pivot| encountered
};

// Factors the matrix held in `*a`, reusing `f`'s storage (matrix buffer and
// permutation vectors); allocation-free once `f` has been used for a system
// of the same size.  On return `f->lu` owns the factored storage and `*a`
// holds `f`'s previous (unspecified) buffer — refill it before the next
// call.  Never throws on singularity — callers must check f->singular.
// Throws std::invalid_argument if `*a` is not square.
template <typename T>
void lu_factor_in_place(Matrix<T>* a, LuFactors<T>* f);

// Solves LU x = Pb in place: `*b` holds the RHS on entry and the solution
// on return, with no allocation.  Throws SingularMatrixError if the
// factorization was singular and std::invalid_argument on size mismatch.
template <typename T>
void lu_solve_in_place(const LuFactors<T>& f, std::vector<T>* b);

// Factors `a`; never throws on singularity — callers must check .singular.
// (Singular circuit matrices are an expected runtime condition, e.g. a
// floating node, and are reported as analysis failures upstream.)
template <typename T>
LuFactors<T> lu_factor(Matrix<T> a);

// Solves LU x = Pb for x.  Throws SingularMatrixError if the factorization
// was singular and std::invalid_argument on rhs size mismatch.
template <typename T>
std::vector<T> lu_solve(const LuFactors<T>& f, const std::vector<T>& b);

// One-shot convenience: factor + solve.
// Throws SingularMatrixError if the matrix is singular.
template <typename T>
std::vector<T> solve(const Matrix<T>& a, const std::vector<T>& b);

// Max norm of a vector.
double max_abs(const std::vector<double>& v);
double max_abs(const std::vector<std::complex<double>>& v);

extern template void lu_factor_in_place(Matrix<double>*, LuFactors<double>*);
extern template void lu_factor_in_place(Matrix<std::complex<double>>*,
                                        LuFactors<std::complex<double>>*);
extern template void lu_solve_in_place(const LuFactors<double>&,
                                       std::vector<double>*);
extern template void lu_solve_in_place(
    const LuFactors<std::complex<double>>&,
    std::vector<std::complex<double>>*);
extern template LuFactors<double> lu_factor(Matrix<double>);
extern template LuFactors<std::complex<double>> lu_factor(
    Matrix<std::complex<double>>);
extern template std::vector<double> lu_solve(const LuFactors<double>&,
                                             const std::vector<double>&);
extern template std::vector<std::complex<double>> lu_solve(
    const LuFactors<std::complex<double>>&,
    const std::vector<std::complex<double>>&);
extern template std::vector<double> solve(const Matrix<double>&,
                                          const std::vector<double>&);
extern template std::vector<std::complex<double>> solve(
    const Matrix<std::complex<double>>&,
    const std::vector<std::complex<double>>&);

}  // namespace oasys::num
