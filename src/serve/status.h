// Live daemon introspection: the kStatus admin frame's payload.
//
// A client sends an empty kStatus on the daemon socket (no kConfig
// needed — status is technology-agnostic) and the daemon answers with a
// kStatus carrying a StatusReport: per-worker health, shared-cache
// occupancy, in-flight requests, and uptime.  `oasys stat --connect S`
// renders it as a human table or as the canonical `oasys.status.v1`
// JSON document.
//
// Everything here is timing-class observability data: values change
// between calls and between runs, and nothing in a StatusReport ever
// feeds back into results or deterministic counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "shard/wire.h"

namespace oasys::serve {

// One resident worker's health as the event loop sees it.
struct WorkerStatus {
  std::uint64_t shard = 0;
  std::int64_t pid = -1;            // -1 while down
  bool alive = false;
  bool retired = false;             // drained; never respawns
  std::uint64_t in_flight_cycles = 0;
  std::uint64_t requests_served = 0;  // results returned, all incarnations
  std::uint64_t respawns = 0;         // times this shard was respawned
  double backoff_s = 0.0;             // current respawn backoff
};

struct StatusReport {
  double uptime_s = 0.0;
  bool draining = false;
  std::uint64_t sessions_total = 0;   // connections accepted since start
  std::uint64_t sessions_active = 0;  // currently open
  std::uint64_t requests_total = 0;   // specs received across sessions
  std::uint64_t batches = 0;          // request cycles completed
  std::uint64_t in_flight = 0;        // dispatched, not yet answered
  std::uint64_t shared_cache_size = 0;
  std::uint64_t shared_cache_capacity = 0;
  std::uint64_t shared_cache_hits = 0;
  std::uint64_t shared_cache_misses = 0;
  std::uint64_t respawns = 0;
  std::uint64_t worker_timeouts = 0;
  std::uint64_t worker_errors = 0;
  // Newton LU work of every answered worker cycle since the daemon
  // started: the sim.lu.* counters (plans made, refactors in a plan,
  // re-plans after a failed pivot check), summed.
  std::uint64_t lu_analyses = 0;
  std::uint64_t lu_refactors = 0;
  std::uint64_t lu_replans = 0;
  std::vector<WorkerStatus> workers;

  // hits / (hits + misses); 0 when the shared tier has seen no traffic.
  double shared_cache_hit_ratio() const;
};

void put_status_report(shard::Writer& w, const StatusReport& s);
StatusReport get_status_report(shard::Reader& r);

// Canonical machine document (schema "oasys.status.v1", one object, no
// trailing newline).
std::string status_json(const StatusReport& s);

// Human rendering: a summary header plus one table row per worker.
std::string status_table(const StatusReport& s);

}  // namespace oasys::serve
