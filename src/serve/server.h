// The one coordinator: a poll(2) event loop with a resident worker pool.
//
// Both serving modes run on it.  `oasys serve` is a persistent daemon:
// clients connect to a unix-domain socket and the pool stays warm across
// their requests.  `oasys shard` (shard::run_sharded_requests) runs its
// batch as the single session of an in-process loop with no listener:
// the session is one end of a socketpair, the shared tier is off, and
// the loop drains as soon as that session closes.  Workers are `oasys
// shard-worker --session` processes.  Sessions speak the shard wire
// frames as a session protocol (kConfig once, then repeated
// kRequest*..kRun -> kResult*..kMetrics..kDone cycles), and each spec
// routes to a worker by the canonical-fingerprint rule (shard::route),
// so per-worker caches stay exact and results stay byte-identical to
// `oasys batch` at every worker count.
//
// Cache tiers.  Each worker keeps its private LRU warm across requests
// (that is the point of residence); above it the coordinator owns a
// shared result-cache tier keyed by the full request fingerprint and
// consulted before routing, so a key that repeats across requests stops
// costing one miss per worker.  Only ok() results are cached; the cached
// value is the result's exact wire bytes (plus which result frame type
// to replay — yield analyses cache under the spec key extended with
// their parameters), so a shared-tier hit replays the identical payload
// a worker would have produced.
//
// Fault model.  The event loop is single-threaded; every fd is
// non-blocking and every write is buffered, so no peer can wedge the
// coordinator.  A worker that dies mid-cycle has its in-flight specs
// answered with deterministic per-spec errors ("worker <i> died before
// returning a result for this spec") and is respawned with exponential
// backoff; a worker that is alive but silent past the per-worker read
// deadline (worker_timeout_s) is killed and handled the same way ("...
// timed out before returning ...") — a request can fail, but it can
// never hang.  Each pool slot keeps its first abnormal end, with the
// decoded exit status, as a WorkerRecord.  Respawns, timeouts,
// shared-cache traffic, and drain time are exported as `serve.*` metrics
// in every client's merged kMetrics frame.
//
// Drain.  request_stop() (async-signal-safe; the CLI points SIGTERM at
// it) closes the listener, lets in-flight cycles finish and answer,
// closes idle sessions, sends every worker EOF at a cycle boundary (a
// session worker exits 0 there), reaps the pool, and returns 0 from
// run().  Without a listener the close of the last session starts the
// same drain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/service.h"
#include "synth/oasys.h"
#include "tech/technology.h"

namespace oasys::serve {

struct ServeOptions {
  // Unix-domain socket path the daemon listens on.  Must fit sockaddr_un
  // (about 100 bytes); a stale file at the path is unlinked before bind.
  std::string socket_path;
  // Resident worker process count (>= 1).  Results are identical at
  // every value; only wall time and per-shard load change.
  std::size_t workers = 2;
  // Executable spawned per worker, invoked as `<worker_command>
  // shard-worker --session`.  The CLI passes its own binary path.
  std::string worker_command;
  // Per-worker service configuration (each worker owns a private cache
  // that stays warm across requests).
  service::ServiceOptions service;
  // Per-worker read deadline [s] while the worker has in-flight cycles;
  // 0 disables it.  Re-arms on every frame received, so a slow but
  // progressing worker is never killed.
  double worker_timeout_s = 30.0;
  // Coordinator-owned shared result-cache capacity in entries; 0
  // disables the shared tier (workers' private caches still apply).
  std::size_t shared_cache_capacity = 256;
  // Respawn backoff: first respawn after backoff_initial_s, doubling to
  // backoff_max_s; reset to the initial value when a worker completes a
  // cycle cleanly.
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
  // Slow-query threshold [ms]; 0 disables it.  A dispatched request whose
  // worker answer arrives this long after its cycle was dispatched gets a
  // structured one-line JSON record on the daemon's stderr (timing-class
  // logging only — results and counters are untouched).
  double slow_ms = 0.0;
};

// Daemon counters, exported as `serve.*` in every merged kMetrics frame
// and readable in-process via Server::stats().
struct ServeStats {
  std::uint64_t sessions = 0;            // connections accepted
  std::uint64_t requests = 0;            // specs received across sessions
  std::uint64_t batches = 0;             // request cycles completed
  std::uint64_t shared_cache_hits = 0;   // answered before routing
  std::uint64_t shared_cache_misses = 0;
  std::uint64_t respawns = 0;            // replacement workers spawned
  std::uint64_t worker_timeouts = 0;     // deadline kills
  std::uint64_t worker_errors = 0;       // per-spec errors from dead workers
  double drain_seconds = 0.0;            // stop request -> loop exit
};

// How one pool slot fared over a run(), for in-process callers once run()
// returns (run_sharded_requests reports one per worker).
struct WorkerRecord {
  // First abnormal end of any incarnation, naming the decoded exit
  // ("worker 1 exited with status 57", "worker 0 killed by signal 9 after
  // it produced no frame within its 1 s deadline"); empty when every
  // incarnation ended cleanly.
  std::string error;
  bool timed_out = false;       // that end was a deadline kill
  service::ServiceStats stats;  // from the slot's latest kMetrics frame
};

class Server {
 public:
  // Validates options and creates the self-pipe request_stop() writes
  // to.  With session_fd < 0 the Server is a daemon: options.socket_path
  // must be set and fit sockaddr_un, and run() binds it.  Otherwise
  // session_fd (one end of a socketpair, owned by the Server from here
  // on) is the in-process loop's only session: no listener, no socket
  // file, socket_path ignored, and run() drains once its peer closes.
  // Throws std::invalid_argument on bad options, std::runtime_error on
  // pipe failure.
  Server(tech::Technology tech, synth::SynthOptions synth_opts,
         ServeOptions options, int session_fd = -1);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket (or adopts the in-process session), spawns the pool,
  // and serves until request_stop() or, in-process, until the session
  // closes.  Returns 0 after a clean drain; throws std::runtime_error
  // when the socket cannot be bound or a worker cannot be spawned.  Call
  // at most once.
  int run();

  // Requests a graceful drain.  Async-signal-safe (one write(2) to the
  // self-pipe) and callable from any thread or signal handler; idempotent.
  void request_stop();

  // Counter snapshot; any thread, any time.
  ServeStats stats() const;

  // One record per pool slot, filled when run() returns; empty before.
  std::vector<WorkerRecord> worker_records() const;

  const ServeOptions& options() const { return options_; }

 private:
  friend class ServerLoop;  // the run() implementation, in server.cpp

  const tech::Technology tech_;
  const synth::SynthOptions synth_opts_;
  const ServeOptions options_;

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int adopted_fd_ = -1;  // in-process session until run() takes it

  mutable std::mutex stats_mu_;
  ServeStats stats_;
  std::vector<WorkerRecord> records_;
};

}  // namespace oasys::serve
