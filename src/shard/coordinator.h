// Coordinator half of cross-process sharded serving.
//
// run_sharded_requests partitions a batch of specs across N worker
// processes by canonical request key: the same (technology, options,
// spec) fingerprint the service layer caches under, finalized through
// util::mix64 and reduced modulo the worker count.  Identical requests
// therefore always co-locate — each worker's private LRU cache sees
// exactly the hits, misses, and dedup joins the key stream implies.
//
// It is a thin wrapper over the one coordinator, serve/server.h: the
// batch runs as the only session of an in-process event loop (no
// listener; the shared tier off), which drains and reaps the pool when
// the session ends.  So `oasys shard` and `oasys serve` share one routing
// rule, one worker loop, and one fault model: a worker that dies or
// wedges yields deterministic per-spec errors, never a hang, and
// ShardReport::infra_ok() goes false.
//
// Determinism contract: outcomes come back in global submission order,
// and each ok() outcome is bit-for-bit what a single SynthesisService
// (and therefore a direct synthesize_opamp call) returns for that spec —
// at every worker count.  The conformance suite pins `oasys shard
// --workers k` stdout byte-identical to `oasys batch` for k in {1,2,4}.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/spec.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "shard/wire.h"
#include "synth/oasys.h"
#include "tech/technology.h"
#include "yield/service.h"

namespace oasys::shard {

struct ShardOptions {
  // Worker process count (>= 1).  Results are identical at every value;
  // only wall time and per-shard load change.
  std::size_t workers = 2;
  // Executable spawned per worker, invoked as `<worker_command>
  // shard-worker --session` with the wire conversation on its
  // stdin/stdout.  The CLI passes its own binary path.
  std::string worker_command;
  // Per-worker service configuration (each worker owns a private cache).
  service::ServiceOptions service;
  // Per-worker progress deadline [s]; 0 disables it.  When set, a worker
  // that produces no frame for this long is presumed wedged (alive but
  // never writing): it is killed, its unreturned specs become
  // deterministic per-spec errors, and the batch completes instead of
  // hanging.  The deadline re-arms on every frame received, so a slow but
  // progressing worker is never killed.  This is the loop's
  // ServeOptions::worker_timeout_s, with the same meaning.
  double worker_timeout_s = 0.0;
  // Distributed-tracing id for this batch (obs::mint_trace_id); 0 keeps
  // tracing off and every request payload byte-identical to an untraced
  // run.  When set, each request carries a trace context (span id =
  // obs::span_id_for(trace_id, submission index)) and workers stream
  // their span sets back.  Never affects results, routing, or the
  // deterministic metrics section.
  std::uint64_t trace_id = 0;
};

// Per-request outcome, in global submission order.  Mirrors
// yield::Outcome plus the shard that served (or lost) the request:
// `result` answers a synthesis request, `yield` answers a yield request.
struct ShardOutcome {
  bool is_yield = false;
  synth::SynthesisResult result;
  yield::YieldResult yield;
  std::string error;       // empty <=> the answer field is valid
  std::size_t shard = 0;   // worker index the request was routed to
  bool ok() const { return error.empty(); }
};

// What happened to one worker slot, end to end.
struct WorkerSummary {
  std::size_t shard = 0;
  std::size_t requests = 0;       // specs routed to this worker
  bool timed_out = false;         // killed by the worker_timeout_s deadline
  // Empty when clean; otherwise the first failure, naming the decoded
  // exit ("worker 1 exited with status 57", "... killed by signal 9").
  std::string error;
  service::ServiceStats stats;    // worker-reported service counters
  bool ok() const { return error.empty(); }
};

struct ShardReport {
  std::vector<ShardOutcome> outcomes;  // one per spec, submission order
  std::vector<WorkerSummary> workers;
  // The loop's merged kMetrics snapshot: merge_snapshots over the
  // workers' cycle deltas with `exec.regions` reflagged non-deterministic
  // (it counts one drain per worker, so it is the one deterministic
  // counter that varies with the worker count), the loop's `serve.*`
  // counters, and per-shard `shard.<i>.*` service counters, all of those
  // in the timing section.  The deterministic section is
  // worker-count-invariant and matches a single-process `oasys batch` run
  // of the same specs.
  obs::MetricsSnapshot merged_metrics;
  // Worker span sets, in arrival order, when ShardOptions::trace_id was
  // set.  Partial by design under faults: a worker flushes its receive
  // markers before computing, so a crashed or wedge-killed worker's sets
  // still frame the failure window.  Coordinator-side events stay in the
  // process-global obs collector (the caller owns draining it).
  std::vector<SpanSet> worker_spans;

  // Every worker ended cleanly (exit 0 at a cycle boundary).  Per-spec
  // synthesis failures (an outcome with ok() false under a healthy
  // worker) are ordinary results at this level; callers combine both for
  // exit codes.
  bool infra_ok() const;
};

// The canonical routing rule, exposed for tests: which worker serves a
// request key, for a given worker count.  Must stay in lockstep with
// SynthesisService::request_key so co-location (and thus cache behavior)
// is exact.
std::size_t route(const std::string& request_key, std::size_t workers);

// One fork+exec'd worker process and the coordinator ends of its pipes
// (to_fd = its stdin, from_fd = its stdout; both CLOEXEC so siblings
// spawned later cannot hold a dead worker's pipe open and mask its EOF).
// `session` spawns `<command> shard-worker --session`, otherwise `<command>
// shard-worker`; both modes run the same worker loop.  Throws
// std::runtime_error when pipe() or fork() fails; an exec or stdio-wiring
// failure in the child surfaces as exit status 127.
struct SpawnedWorker {
  pid_t pid = -1;
  int to_fd = -1;
  int from_fd = -1;
};
SpawnedWorker spawn_worker_process(const std::string& command, bool session);

// Runs a mixed batch of synthesis and yield requests as one session on an
// in-process event loop with options.workers worker processes, maps the
// answers, per-worker records, and merged metrics into a ShardReport, and
// returns once every child is reaped.  Yield requests are routed by their
// spec's plain request key — the same key a synthesis of that spec routes
// by — so the two kinds of traffic for one spec always co-locate on one
// worker and share its caches (which is also what keeps the merged
// deterministic counters worker-count-invariant).  Throws
// std::invalid_argument on workers == 0 or an empty worker_command, and
// std::runtime_error when a socketpair, pipe, or fork fails; worker
// failures are reported in the ShardReport, never thrown.
ShardReport run_sharded_requests(const tech::Technology& tech,
                                 const synth::SynthOptions& synth_opts,
                                 const std::vector<yield::Request>& requests,
                                 const ShardOptions& options);

// Synthesis-only convenience wrapper over run_sharded_requests.
ShardReport run_sharded_batch(const tech::Technology& tech,
                              const synth::SynthOptions& synth_opts,
                              const std::vector<core::OpAmpSpec>& specs,
                              const ShardOptions& options);

}  // namespace oasys::shard
