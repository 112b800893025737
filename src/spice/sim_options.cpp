#include "spice/sim_options.h"

#include <atomic>
#include <cstdlib>

namespace oasys::sim {

namespace {

constexpr TranMode kBuiltInTranMode = TranMode::kAdaptive;

TranMode initial_tran_mode() {
  const char* env = std::getenv("OASYS_TRAN_MODE");
  TranMode parsed = TranMode::kDefault;
  if (env != nullptr && parse_tran_mode(env, &parsed)) {
    return parsed;
  }
  return kBuiltInTranMode;
}

std::atomic<TranMode>& tran_mode_slot() {
  static std::atomic<TranMode> slot{initial_tran_mode()};
  return slot;
}

// Positive-finite environment override, or fall back to the built-in.
double tolerance_from_env(const char* name, double built_in) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0 && v < 1e300) return v;
  }
  return built_in;
}

double initial_tran_rtol() {
  static const double v = tolerance_from_env("OASYS_TRAN_RTOL", 1e-3);
  return v;
}

double initial_tran_atol() {
  static const double v = tolerance_from_env("OASYS_TRAN_ATOL", 1e-6);
  return v;
}

std::atomic<double>& tran_rtol_slot() {
  static std::atomic<double> slot{initial_tran_rtol()};
  return slot;
}

std::atomic<double>& tran_atol_slot() {
  static std::atomic<double> slot{initial_tran_atol()};
  return slot;
}

}  // namespace

bool parse_tran_mode(std::string_view text, TranMode* out) {
  if (text == "fixed") {
    *out = TranMode::kFixed;
    return true;
  }
  if (text == "adaptive") {
    *out = TranMode::kAdaptive;
    return true;
  }
  return false;
}

const char* to_string(TranMode mode) {
  switch (mode) {
    case TranMode::kDefault:
      return "default";
    case TranMode::kFixed:
      return "fixed";
    case TranMode::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

TranMode tran_mode_default() {
  return tran_mode_slot().load(std::memory_order_relaxed);
}

void set_tran_mode_default(TranMode mode) {
  tran_mode_slot().store(mode == TranMode::kDefault ? kBuiltInTranMode : mode,
                         std::memory_order_relaxed);
}

TranMode resolve_tran_mode(TranMode requested) {
  return requested == TranMode::kDefault ? tran_mode_default() : requested;
}

TranTolerance tran_tolerance_default() {
  TranTolerance tol;
  tol.rtol = tran_rtol_slot().load(std::memory_order_relaxed);
  tol.atol = tran_atol_slot().load(std::memory_order_relaxed);
  return tol;
}

void set_tran_tolerance_default(double rtol, double atol) {
  tran_rtol_slot().store(rtol > 0.0 ? rtol : initial_tran_rtol(),
                         std::memory_order_relaxed);
  tran_atol_slot().store(atol > 0.0 ? atol : initial_tran_atol(),
                         std::memory_order_relaxed);
}

}  // namespace oasys::sim
