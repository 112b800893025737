// Sparse real LU for the Newton Jacobians (DC operating point, transient).
//
// An MNA Jacobian keeps one structural pattern for the whole of an
// analysis: every iteration stamps the same slots with new values.  So the
// elimination order is chosen once and then replayed:
//
//  * analyse — a Markowitz search (Markowitz 1957; Kundert's Sparse 1.3)
//    over the structural pattern, on the values at hand: at each step the
//    pivot minimizes (row count - 1)(column count - 1) of the active
//    submatrix among the entries at least kPivotThreshold times the
//    largest active entry of their column.  Ties go to the larger ratio,
//    then the lower column, then the lower row, so the order is a pure
//    function of (pattern, values).  The elimination is compiled into a
//    plan: the pivot sequence and, per step, the rows it updates and the
//    columns it reaches (fill included).  The analysed matrix is factored
//    on the way.
//  * refactor — replays the plan on new values in O(fill) time.  Each
//    pivot is checked against the same threshold; a zero, non-finite or
//    too-small pivot fails the refactor, and the caller re-plans on fresh
//    values (the failed refactor consumed the matrix).
//  * solve — forward and back substitution in the plan's order.
//
// The factors stay in a dense row-major buffer (n is tens): the plan only
// decides which entries are touched and in which order, so a refactor on
// the values an analysis saw reproduces its factors bit for bit.
//
// Scope and determinism: a plan is data, made from the values of one
// analysis call and handed on only explicitly (LuPlan copies).  Results
// differ from dense partial-pivot LU (num::LuFactors, the reference the
// tests and benches compare against) at rounding level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/matrix.h"

namespace oasys::num {

// Structural nonzero pattern of an n x n matrix: one bitset per row.
class SparsePattern {
 public:
  // n x n with no entries; allocation-free once sized for n.
  void reset(std::size_t n);
  void add(std::size_t row, std::size_t col) {
    bits_[row * words_ + col / 64] |= std::uint64_t{1} << (col % 64);
  }
  bool has(std::size_t row, std::size_t col) const {
    return (bits_[row * words_ + col / 64] >> (col % 64)) & 1u;
  }
  std::size_t size() const { return n_; }
  std::size_t words() const { return words_; }  // 64-bit words per row
  const std::uint64_t* row_bits(std::size_t row) const {
    return bits_.data() + row * words_;
  }
  std::size_t nnz() const;

  bool operator==(const SparsePattern& o) const {
    return n_ == o.n_ && bits_ == o.bits_;
  }

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // n_ rows of words_ words
};

// A compiled elimination order for one pattern.  Empty (planned() false)
// until SparseLu::analyse succeeds.
class LuPlan {
 public:
  bool planned() const { return !pivot_row_.empty(); }
  std::size_t size() const { return pivot_row_.size(); }
  const SparsePattern& pattern() const { return pattern_; }
  // Multiply-subtract updates one refactor performs (fill included).
  std::size_t update_count() const;

 private:
  friend class SparseLu;
  SparsePattern pattern_;
  // Step k pivots on (pivot_row_[k], pivot_col_[k]); it updates rows
  // lower_[lower_begin_[k] .. lower_begin_[k+1]) in columns
  // upper_[upper_begin_[k] .. upper_begin_[k+1]), both ascending.
  std::vector<std::uint32_t> pivot_row_, pivot_col_;
  std::vector<std::uint32_t> lower_begin_, lower_;
  std::vector<std::uint32_t> upper_begin_, upper_;
};

class SparseLu {
 public:
  // Relative pivot threshold (Sparse 1.3's default).
  static constexpr double kPivotThreshold = 1e-3;

  // Chooses a pivot order for the values in `*a` within `pattern` (every
  // nonzero of `*a` must lie in it), factors `*a` in that order and keeps
  // the order as the plan.  Adopts `*a`'s storage by swap, as
  // lu_factor_in_place does: `*a` gets the previous factor buffer back.
  // Returns false when the matrix is singular (the active submatrix has no
  // nonzero, finite pivot left); the plan is then dropped and solve()
  // throws SingularMatrixError.  Allocation-free at steady sizes.
  // Throws std::invalid_argument if `*a` is not pattern.size() square.
  bool analyse(const SparsePattern& pattern, RealMatrix* a);

  // Factors `*a` (storage adopted by swap) in the current plan.  Returns
  // false on a zero or non-finite pivot, or one below kPivotThreshold
  // times the largest active entry of its column; the plan is kept, the
  // values are consumed and solve() throws until the next success.
  // Throws std::logic_error without a plan, std::invalid_argument on a
  // size mismatch.
  bool refactor(RealMatrix* a);

  // Solves A x = b in place for the last successful factorization.
  // Throws SingularMatrixError when there is none and
  // std::invalid_argument on a size mismatch.  Allocation-free at steady
  // sizes.
  void solve(std::vector<double>* b);

  bool planned() const { return plan_.planned(); }
  const LuPlan& plan() const { return plan_; }
  // Replaces the plan by a copy of `plan` (an empty LuPlan drops it);
  // allocation-free once the buffers have grown.  Invalidates the
  // factors.
  void use_plan(const LuPlan& plan);

 private:
  LuPlan plan_;
  RealMatrix lu_;
  bool factored_ = false;
  std::vector<double> work_;  // solve scratch
  // analyse scratch: active rows/columns, row and column bitsets, and per
  // row/column active counts and column maxima (kept up to date for the
  // rows and columns each step touches)
  std::vector<std::uint64_t> alive_rows_, alive_cols_;
  std::vector<std::uint64_t> row_bits_, col_bits_;
  std::vector<std::uint32_t> row_count_, col_count_;
  std::vector<double> col_max_;
};

}  // namespace oasys::num
