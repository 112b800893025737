#include "numeric/interpolate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oasys::num {

namespace {

void validate(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("interpolation: xs/ys size mismatch");
  }
  if (xs.empty()) {
    throw std::invalid_argument("interpolation: empty series");
  }
}

}  // namespace

double interp_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys, double x) {
  validate(xs, ys);
  if (xs.size() == 1 || x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double span = xs[hi] - xs[lo];
  if (span == 0.0) return ys[lo];
  const double t = (x - xs[lo]) / span;
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

double interp_semilogx(const std::vector<double>& xs,
                       const std::vector<double>& ys, double x) {
  validate(xs, ys);
  for (const double xi : xs) {
    if (xi <= 0.0) {
      throw std::invalid_argument("interp_semilogx: xs must be positive");
    }
  }
  if (x <= 0.0) return ys.front();
  // interp_linear over log10(xs), with the logs taken on the fly instead
  // of into a temporary: allocation-free, the same arithmetic.
  const double lq = std::log10(x);
  if (xs.size() == 1 || lq <= std::log10(xs.front())) return ys.front();
  if (lq >= std::log10(xs.back())) return ys.back();
  const auto it = std::upper_bound(
      xs.begin(), xs.end(), lq,
      [](double l, double xi) { return l < std::log10(xi); });
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double llo = std::log10(xs[lo]);
  const double span = std::log10(xs[hi]) - llo;
  if (span == 0.0) return ys[lo];
  const double t = (lq - llo) / span;
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

std::optional<double> first_crossing(const std::vector<double>& xs,
                                     const std::vector<double>& ys,
                                     double level) {
  validate(xs, ys);
  for (std::size_t i = 1; i < xs.size(); ++i) {
    const double a = ys[i - 1] - level;
    const double b = ys[i] - level;
    if (a == 0.0) return xs[i - 1];
    if (a * b < 0.0) {
      const double t = a / (a - b);
      return xs[i - 1] + t * (xs[i] - xs[i - 1]);
    }
  }
  if (ys.back() == level) return xs.back();
  return std::nullopt;
}

std::vector<double> logspace(double lo, double hi, std::size_t n) {
  if (lo <= 0.0 || hi <= 0.0) {
    throw std::invalid_argument("logspace: bounds must be positive");
  }
  if (n < 2) throw std::invalid_argument("logspace: need n >= 2");
  std::vector<double> out(n);
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    out[i] = std::pow(10.0, llo + t * (lhi - llo));
  }
  return out;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("linspace: need n >= 2");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    out[i] = lo + t * (hi - lo);
  }
  return out;
}

}  // namespace oasys::num
