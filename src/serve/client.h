// Client half of serving: runs one batch through the event loop of
// serve/server.h — a running `oasys serve` daemon over its unix-domain
// socket, or an in-process loop over a socketpair (how `oasys shard`
// runs its batch).
//
// The conversation is the shard wire protocol as a session: kConfig
// (carrying the client's technology/options fingerprints, which the
// daemon verifies against its own before serving), kRequest or
// kYieldRequest per request, kRun, then one result frame per request,
// kMetrics, kDone.  A batch is a yield::Request list; a plain synthesis
// batch is one with every is_yield false (yield::synthesis_requests).
// Outcomes come back in submission order and are bit-for-bit what a local
// `oasys batch` (a yield::YieldService) produces for the same requests —
// daemon serving changes where the work runs, never what it returns.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/status.h"
#include "service/service.h"
#include "shard/wire.h"
#include "synth/oasys.h"
#include "tech/technology.h"
#include "yield/service.h"

namespace oasys::serve {

// One cycle's answers: one yield::Outcome per request, submission order.
// ok() items are bit-identical to what the local yield::YieldService
// produces for the same requests.
struct MixedConnectReport {
  std::vector<yield::Outcome> outcomes;
  // The loop's merged snapshot: per-cycle worker deltas plus `serve.*`
  // counters (all flagged non-deterministic — they depend on the
  // daemon's history, not this batch).
  obs::MetricsSnapshot metrics;
  // Cumulative worker service counters summed across the workers that
  // served this batch.  count/min/mean/max of the latency summary merge;
  // the percentile fields do not and are left 0.
  service::ServiceStats stats;
  // Worker span sets forwarded by the daemon, arrival order; populated
  // only when the requests carried trace ids (trace_id != 0 on Request).
  // Timing-class data — never part of the result bytes.
  std::vector<shard::SpanSet> worker_spans;
};

// Runs one mixed synthesis/yield cycle as a session on an open stream
// `fd` (the caller keeps ownership).  Each request travels as kRequest or
// kYieldRequest and is answered by the matching result frame type (a
// mismatch is a protocol error and throws).  Throws std::runtime_error
// when the loop refuses the configuration (kError), closes the session
// early, or breaks the protocol; per-request failures are ordinary
// outcomes, never thrown.
MixedConnectReport run_session_mixed(
    int fd, const tech::Technology& tech,
    const synth::SynthOptions& synth_opts,
    const std::vector<yield::Request>& requests);

// Connects to a daemon by socket path, runs run_session_mixed,
// disconnects.  Also throws std::runtime_error when the daemon is
// unreachable.  Requests with a nonzero trace_id (span ids from
// obs::span_id_for over the submission index) bring the workers' span
// sets back correlated; untraced requests keep the wire payloads
// byte-identical to an untraced run.
MixedConnectReport run_connected_mixed(
    const std::string& socket_path, const tech::Technology& tech,
    const synth::SynthOptions& synth_opts,
    const std::vector<yield::Request>& requests);

// Admin introspection: connects, sends one empty kStatus frame, and
// returns the daemon's StatusReport.  Needs no technology — the daemon
// answers kStatus before kConfig.  Throws std::runtime_error when the
// daemon is unreachable or answers with anything but a kStatus.
StatusReport fetch_status(const std::string& socket_path);

}  // namespace oasys::serve
