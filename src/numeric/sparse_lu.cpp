#include "numeric/sparse_lu.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "numeric/linear.h"

namespace oasys::num {

namespace {

constexpr std::uint64_t bit(std::size_t i) {
  return std::uint64_t{1} << (i % 64);
}

// Calls fn(i) for every i set in both bitsets (w words each), ascending.
template <typename Fn>
void for_each_common(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t w, const Fn& fn) {
  for (std::size_t k = 0; k < w; ++k) {
    for (std::uint64_t word = a[k] & b[k]; word != 0; word &= word - 1) {
      fn(static_cast<std::uint32_t>(k * 64 + std::countr_zero(word)));
    }
  }
}

// One elimination step on the row-major n x n buffer `m`: pivot (p, q),
// multipliers stored in place in column q of the `lower` rows, and those
// rows updated in the `upper` columns.  analyse and refactor share it, so
// a refactor on the analysed values reproduces the analysed factors.
void eliminate(double* m, std::size_t n, std::uint32_t p, std::uint32_t q,
               const std::uint32_t* lower, const std::uint32_t* lower_end,
               const std::uint32_t* upper, const std::uint32_t* upper_end) {
  const double* rp = m + p * n;
  const double pivot = rp[q];
  for (; lower != lower_end; ++lower) {
    double* ri = m + *lower * n;
    const double l = ri[q] / pivot;
    ri[q] = l;
    for (const std::uint32_t* j = upper; j != upper_end; ++j) {
      ri[*j] -= l * rp[*j];
    }
  }
}

}  // namespace

void SparsePattern::reset(std::size_t n) {
  n_ = n;
  words_ = (n + 63) / 64;
  bits_.assign(n * words_, 0);
}

std::size_t SparsePattern::nnz() const {
  std::size_t count = 0;
  for (const std::uint64_t w : bits_) count += std::popcount(w);
  return count;
}

std::size_t LuPlan::update_count() const {
  std::size_t count = 0;
  for (std::size_t k = 0; k < size(); ++k) {
    count += (lower_begin_[k + 1] - lower_begin_[k]) *
             (upper_begin_[k + 1] - upper_begin_[k]);
  }
  return count;
}

bool SparseLu::analyse(const SparsePattern& pattern, RealMatrix* a) {
  const std::size_t n = pattern.size();
  if (a->rows() != n || a->cols() != n) {
    throw std::invalid_argument("SparseLu::analyse: matrix/pattern size");
  }
  std::swap(lu_, *a);
  factored_ = false;
  LuPlan& plan = plan_;
  plan.pattern_ = pattern;
  plan.pivot_row_.clear();
  plan.pivot_col_.clear();
  plan.lower_.clear();
  plan.upper_.clear();
  plan.lower_begin_.assign(1, 0);
  plan.upper_begin_.assign(1, 0);

  // Active structure: row and column bitsets (fill is added as it
  // appears) and the still-uneliminated rows and columns.
  const std::size_t w = pattern.words();
  row_bits_.assign(pattern.row_bits(0), pattern.row_bits(0) + n * w);
  col_bits_.assign(n * w, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t* row = pattern.row_bits(r);
    for_each_common(row, row, w, [&](std::uint32_t c) {
      col_bits_[c * w + r / 64] |= bit(r);
    });
  }
  alive_rows_.assign(w, 0);
  for (std::size_t i = 0; i < n; ++i) alive_rows_[i / 64] |= bit(i);
  alive_cols_ = alive_rows_;
  row_count_.resize(n);
  col_count_.resize(n);
  col_max_.resize(n);

  double* m = lu_.data();
  const auto count_row = [&](std::uint32_t i) {
    std::uint32_t count = 0;
    for (std::size_t s = 0; s < w; ++s) {
      count += static_cast<std::uint32_t>(
          std::popcount(row_bits_[i * w + s] & alive_cols_[s]));
    }
    row_count_[i] = count;
  };
  // Active count and largest magnitude of column j; false on a
  // non-finite entry.
  const auto scan_column = [&](std::uint32_t j) {
    double col_max = 0.0;
    std::uint32_t count = 0;
    bool finite = true;
    for_each_common(col_bits_.data() + j * w, alive_rows_.data(), w,
                    [&](std::uint32_t i) {
                      const double v = std::abs(m[i * n + j]);
                      finite = finite && std::isfinite(v);
                      col_max = std::max(col_max, v);
                      ++count;
                    });
    col_max_[j] = col_max;
    col_count_[j] = count;
    return finite;
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    count_row(i);
    if (!scan_column(i)) return false;
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Markowitz search over the entries that pass the threshold.  A step
    // touches only the rows and columns of its pivot, so the counts and
    // maxima of the others carry over.  A cost-0 entry that is its
    // column's largest cannot be beaten and, found first in (column, row)
    // order, wins every tie: the search stops there.
    std::uint32_t p = 0, q = 0;
    const auto search = [&] {
      bool found = false;
      std::size_t best_cost = 0;
      double best_ratio = 0.0;
      for (std::size_t s = 0; s < w; ++s) {
        for (std::uint64_t cols = alive_cols_[s]; cols != 0;
             cols &= cols - 1) {
          const auto j = static_cast<std::uint32_t>(
              s * 64 + std::countr_zero(cols));
          const double col_max = col_max_[j];
          if (col_max == 0.0) continue;
          const double threshold = kPivotThreshold * col_max;
          const std::uint64_t* col = col_bits_.data() + j * w;
          for (std::size_t t = 0; t < w; ++t) {
            for (std::uint64_t rows = col[t] & alive_rows_[t]; rows != 0;
                 rows &= rows - 1) {
              const auto i = static_cast<std::uint32_t>(
                  t * 64 + std::countr_zero(rows));
              const double v = std::abs(m[i * n + j]);
              if (v < threshold) continue;
              const std::size_t cost =
                  static_cast<std::size_t>(row_count_[i] - 1) *
                  (col_count_[j] - 1);
              const double ratio = v / col_max;
              if (!found || cost < best_cost ||
                  (cost == best_cost && ratio > best_ratio)) {
                found = true;
                best_cost = cost;
                best_ratio = ratio;
                p = i;
                q = j;
                if (cost == 0 && ratio == 1.0) return true;
              }
            }
          }
        }
      }
      return found;
    };
    if (!search()) {
      plan.pivot_row_.clear();
      return false;
    }

    alive_rows_[p / 64] &= ~bit(p);
    alive_cols_[q / 64] &= ~bit(q);
    plan.pivot_row_.push_back(p);
    plan.pivot_col_.push_back(q);
    const std::uint64_t* pivot_col = col_bits_.data() + q * w;
    const std::uint64_t* pivot_row = row_bits_.data() + p * w;
    for_each_common(pivot_col, alive_rows_.data(), w,
                    [&](std::uint32_t i) { plan.lower_.push_back(i); });
    for_each_common(pivot_row, alive_cols_.data(), w,
                    [&](std::uint32_t j) { plan.upper_.push_back(j); });
    const std::size_t lo = plan.lower_begin_.back();
    const std::size_t up = plan.upper_begin_.back();
    plan.lower_begin_.push_back(static_cast<std::uint32_t>(plan.lower_.size()));
    plan.upper_begin_.push_back(static_cast<std::uint32_t>(plan.upper_.size()));
    // Fill: every updated row reaches every pivot-row column, and every
    // reached column gains every updated row.
    for (std::size_t t = lo; t < plan.lower_.size(); ++t) {
      std::uint64_t* ri = row_bits_.data() + plan.lower_[t] * w;
      for (std::size_t s = 0; s < w; ++s) {
        ri[s] |= pivot_row[s] & alive_cols_[s];
      }
    }
    for (std::size_t t = up; t < plan.upper_.size(); ++t) {
      std::uint64_t* cj = col_bits_.data() + plan.upper_[t] * w;
      for (std::size_t s = 0; s < w; ++s) {
        cj[s] |= pivot_col[s] & alive_rows_[s];
      }
    }
    eliminate(m, n, p, q, plan.lower_.data() + lo,
              plan.lower_.data() + plan.lower_.size(),
              plan.upper_.data() + up,
              plan.upper_.data() + plan.upper_.size());
    // Only the updated rows changed shape, and only the reached columns
    // changed shape or values.
    for (std::size_t t = lo; t < plan.lower_.size(); ++t) {
      count_row(plan.lower_[t]);
    }
    for (std::size_t t = up; t < plan.upper_.size(); ++t) {
      if (!scan_column(plan.upper_[t])) {
        plan.pivot_row_.clear();
        return false;
      }
    }
  }
  factored_ = true;
  return true;
}

bool SparseLu::refactor(RealMatrix* a) {
  if (!plan_.planned()) {
    throw std::logic_error("SparseLu::refactor: no plan");
  }
  const std::size_t n = plan_.size();
  if (a->rows() != n || a->cols() != n) {
    throw std::invalid_argument("SparseLu::refactor: matrix/plan size");
  }
  std::swap(lu_, *a);
  factored_ = false;
  double* m = lu_.data();
  const std::uint32_t* lower = plan_.lower_.data();
  const std::uint32_t* upper = plan_.upper_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t p = plan_.pivot_row_[k];
    const std::uint32_t q = plan_.pivot_col_[k];
    const std::uint32_t* lo = lower + plan_.lower_begin_[k];
    const std::uint32_t* lo_end = lower + plan_.lower_begin_[k + 1];
    const double pivot = std::abs(m[p * n + q]);
    double col_max = pivot;
    bool finite = std::isfinite(pivot);
    for (const std::uint32_t* i = lo; i != lo_end; ++i) {
      const double v = std::abs(m[*i * n + q]);
      finite = finite && std::isfinite(v);
      col_max = std::max(col_max, v);
    }
    if (!finite || pivot == 0.0 || pivot < kPivotThreshold * col_max) {
      return false;
    }
    eliminate(m, n, p, q, lo, lo_end, upper + plan_.upper_begin_[k],
              upper + plan_.upper_begin_[k + 1]);
  }
  factored_ = true;
  return true;
}

void SparseLu::solve(std::vector<double>* b) {
  if (!factored_) {
    throw SingularMatrixError("SparseLu::solve: no valid factorization");
  }
  const std::size_t n = plan_.size();
  if (b->size() != n) {
    throw std::invalid_argument("SparseLu::solve: rhs size mismatch");
  }
  work_.resize(n);
  const double* m = lu_.data();
  double* x = b->data();
  const std::uint32_t* lower = plan_.lower_.data();
  const std::uint32_t* upper = plan_.upper_.data();
  // Forward: unit-lower L in pivot order, on the row-indexed RHS.
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t q = plan_.pivot_col_[k];
    const double xp = x[plan_.pivot_row_[k]];
    for (std::uint32_t t = plan_.lower_begin_[k];
         t < plan_.lower_begin_[k + 1]; ++t) {
      x[lower[t]] -= m[lower[t] * n + q] * xp;
    }
  }
  // Back: U in reverse pivot order, into the column-indexed solution.
  for (std::size_t k = n; k-- > 0;) {
    const double* rp = m + plan_.pivot_row_[k] * n;
    double acc = x[plan_.pivot_row_[k]];
    for (std::uint32_t t = plan_.upper_begin_[k];
         t < plan_.upper_begin_[k + 1]; ++t) {
      acc -= rp[upper[t]] * work_[upper[t]];
    }
    work_[plan_.pivot_col_[k]] = acc / rp[plan_.pivot_col_[k]];
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = work_[i];
}

void SparseLu::use_plan(const LuPlan& plan) {
  plan_ = plan;
  factored_ = false;
}

}  // namespace oasys::num
