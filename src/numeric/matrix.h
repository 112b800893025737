// Dense row-major matrix, templated over the element type.
//
// Circuit matrices in OASYS are small (tens of unknowns), so they are
// stored dense.  Storage is not elimination order, though: the Newton
// Jacobians are factored by num::SparseLu (numeric/sparse_lu.h), which
// touches only the pattern and its fill in a planned order and, on paper
// case C (n = 22-24), refactors and solves 4.5-6.3x faster than dense
// partial-pivot LU on the same buffer (BENCH_sim_perf.json, newton_lu).  Used with T = double (DC and
// transient Jacobians, the AC kernel's reduced pencil) and
// T = std::complex<double> (the dense AC reference).
#pragma once

#include <complex>
#include <stdexcept>
#include <vector>

namespace oasys::num {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T& operator()(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  void fill(T value) { data_.assign(data_.size(), value); }

  // Row pointer for the LU inner loops (bounds already validated).
  T* row(std::size_t r) { return data_.data() + r * cols_; }
  const T* row(std::size_t r) const { return data_.data() + r * cols_; }

  // Contiguous row-major storage (rows()*cols() elements), for kernels that
  // stream the whole matrix without per-element bounds checks.
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  std::vector<T> multiply(const std::vector<T>& x) const {
    if (x.size() != cols_) {
      throw std::invalid_argument("Matrix::multiply: size mismatch");
    }
    std::vector<T> y(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      const T* a = row(r);
      T acc{};
      for (std::size_t c = 0; c < cols_; ++c) acc += a[c] * x[c];
      y[r] = acc;
    }
    return y;
  }

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("Matrix index out of range");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<std::complex<double>>;

}  // namespace oasys::num
