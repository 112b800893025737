// Random-mismatch (matching) analysis.
//
// The paper's Section 2.1 singles out matching as the process constraint
// that dominates analog design ("a particular design style ... may require
// components with precisely matched electrical characteristics").  This
// module quantifies it for synthesized op amps:
//
//  * an analytic prediction of the one-sigma random input offset from the
//    classic area law sigma(VT) = AVT/sqrt(W*L), referred through the
//    first stage (pair directly, load mirror scaled by gm3/gm1);
//  * a Monte-Carlo measurement: every device's threshold is perturbed by a
//    Gaussian draw of its own sigma and the resulting input offset is
//    found by the testbench's offset-null primitive (measure_offset).
#pragma once

#include <cstdint>

#include "synth/opamp_design.h"
#include "tech/technology.h"

namespace oasys::synth {

// Analytic one-sigma random input offset [V] (first-stage devices only;
// later stages are attenuated by the first-stage gain).
double predict_random_offset_sigma(const OpAmpDesign& design,
                                   const tech::Technology& t);

struct MismatchOptions {
  int samples = 50;
  std::uint64_t seed = 1;
};

struct MismatchResult {
  bool ok = false;
  std::string error;
  int samples = 0;        // converged samples
  double mean_offset = 0.0;   // [V] (systematic component)
  double sigma_offset = 0.0;  // [V] (random component, sample stddev)
  double worst_offset = 0.0;  // max |offset| seen [V]
};

MismatchResult monte_carlo_offset(const OpAmpDesign& design,
                                  const tech::Technology& t,
                                  const MismatchOptions& opts = {});

}  // namespace oasys::synth
