// Per-layer probes for the traced run: each one times a layer's public
// calls from outside, on a design or outcome the workload really produced.
#pragma once

#include <string>

#include "bench.h"

namespace perfbench {

struct SimProbe {
  double dc_ms = 0.0;     // dc_operating_point
  double ac_ms = 0.0;     // ac_analysis, 121 points
  double noise_ms = 0.0;  // noise_analysis, 25 points
  double tran_ms = 0.0;   // fixed-step transient, 1200 steps
  double lu_real_us = 0.0;     // lu_factor_in_place + lu_solve_in_place
  double lu_complex_us = 0.0;  // the same on the complex matrix
  double mos_eval_ns = 0.0;    // evaluate_core_batch, per device
};

// Times the simulator, dense LU and device-model layers on
// build_standalone_opamp(design): the analyses once each, the LU and MOS
// kernels in loops at the design's own MNA size and device count.
SimProbe probe_simulator(const tech::Technology& t,
                         const synth::OpAmpDesign& design, Tracer& tr);

struct WireProbe {
  double encode_us = 0.0;  // put_spec (+ put_yield_params) + put_*result
  double decode_us = 0.0;  // the matching get_* calls
  double bytes = 0.0;      // request + result payload bytes
};

// Encodes and decodes one request and its real outcome with the shard wire
// serializers; throws when the round trip changes the outcome's bytes.
WireProbe probe_wire(const yield::Request& request,
                     const yield::Outcome& outcome, Tracer& tr);

// spawn_worker_process -> EOF on its stdout -> reap, in milliseconds.
double probe_spawn_ms(const std::string& worker_command,
                      const tech::Technology& tech, Tracer& tr);

}  // namespace perfbench
