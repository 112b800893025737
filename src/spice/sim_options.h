// Runtime simulation-engine options shared by every analysis.
#pragma once

#include <string_view>

namespace oasys::sim {

// TranMode selects the transient time-stepping strategy.  The choice is
// semantically meaningful: the adaptive integrator's results agree with
// fixed-step only within the configured error tolerances, never
// bit-for-bit.  It therefore participates in request fingerprints and the
// shard/serve wire config, so fixed and adaptive runs can never share a
// cache entry or a golden pin.
//
// Resolution order for a transient call:
//   1. an explicit kFixed/kAdaptive in the per-call options wins;
//   2. kDefault falls back to the process-wide default, which is
//      kAdaptive unless overridden by set_tran_mode_default() or, at
//      first use, by the environment variable
//      OASYS_TRAN_MODE=fixed|adaptive.
enum class TranMode {
  kDefault = 0,  // resolve via the process-wide default
  kFixed,        // fixed-step trap/BE (the permanent bitwise reference)
  kAdaptive,     // trap, truncation-error step control, lands on corners
};

TranMode tran_mode_default();

// Overrides the process-wide default; kDefault restores the built-in
// default (kAdaptive).  Intended for CLI flags, worker config, and tests.
void set_tran_mode_default(TranMode mode);

// Collapses kDefault to the process-wide default; identity otherwise.
TranMode resolve_tran_mode(TranMode requested);

// Parses "fixed" / "adaptive" (the user-facing spellings).  Returns false
// — leaving *out untouched — on anything else.
bool parse_tran_mode(std::string_view text, TranMode* out);

const char* to_string(TranMode mode);

// Per-state-variable error tolerances for the adaptive integrator: a step
// is accepted when max_i |err_i| / (atol + rtol*|x_i|) <= 1.
struct TranTolerance {
  double rtol = 1e-3;
  double atol = 1e-6;
};

// Process-wide defaults used wherever TranOptions carries rtol/atol <= 0.
// The first read consults OASYS_TRAN_RTOL / OASYS_TRAN_ATOL.
TranTolerance tran_tolerance_default();

// Overrides the process-wide tolerance defaults.  A non-positive
// component restores that component's initial (built-in or
// environment-supplied) default.
void set_tran_tolerance_default(double rtol, double atol);

}  // namespace oasys::sim
