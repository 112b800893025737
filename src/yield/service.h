// YieldService — mixed synthesis + yield traffic over one service stack.
//
// The realistic serving workload is not N independent syntheses: it is a
// stream where cheap statistical queries (yield of spec X at seed S)
// vastly outnumber the expensive syntheses they depend on.  YieldService
// layers that traffic shape onto SynthesisService: every request's
// underlying synthesis goes through the synthesis service (LRU +
// single-flight dedup, so a thousand yield queries against one spec pay
// for one synthesis), and completed yield analyses are cached in their
// own LRU keyed by (request key, yield params) — the same key the daemon
// shared-cache tier and the shard router use, so a repeated yield request
// is a cache hit at every layer.
//
// Threading: run_mixed computes yield analyses serially in submission
// order on the calling thread (the parallelism lives inside
// analyze_yield's sample fan-out); the yield cache is mutex-guarded, so
// concurrent callers are safe but may duplicate a computation — which is
// harmless, because results are pure functions of the key.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "service/lru_cache.h"
#include "service/service.h"
#include "yield/yield.h"

namespace oasys::yield {

// One unit of mixed traffic: a plain synthesis when is_yield is false, a
// Monte-Carlo yield run (synthesis + N samples) when true.
struct Request {
  core::OpAmpSpec spec;
  bool is_yield = false;
  YieldParams params;  // meaningful only when is_yield
  // Distributed-tracing correlation (0 = untraced).  Carried alongside the
  // request so run_mixed can install the per-request trace context around
  // the computation; never part of any cache or routing key, and never a
  // result byte — tracing on/off must not change `oasys.result.v1`.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

// A plain synthesis batch as a request list: one request per spec, every
// is_yield false, untraced.
std::vector<Request> synthesis_requests(
    const std::vector<core::OpAmpSpec>& specs);

// Per-request outcome, mirroring service::BatchOutcome: `error` is empty
// when the request ran to completion (an infeasible spec is an ordinary
// result), and holds the exception's what() when the computation threw.
struct Outcome {
  bool is_yield = false;
  synth::SynthesisResult result;  // when !is_yield
  YieldResult yield;              // when is_yield
  std::string error;
  // Service time [s] of the request's synthesis, as
  // service::BatchOutcome::seconds reports it (the yield analysis is not
  // included).  Timing-class: set by YieldService::run_mixed only, never
  // carried on the wire or in any result byte.
  double seconds = 0.0;
  bool ok() const { return error.empty(); }
};

// Canonical oasys.result.v1 bytes for either kind of outcome.
std::string outcome_json(const Outcome& o);

class YieldService {
 public:
  explicit YieldService(tech::Technology tech,
                        synth::SynthOptions synth_opts = {},
                        service::ServiceOptions opts = {});

  // Runs a mixed batch; out[i] answers requests[i], in submission order.
  // Synthesis outcomes are bit-for-bit SynthesisService::run_batch_outcomes;
  // yield outcomes are bit-for-bit run_yield at every jobs setting, on the
  // cold and cached paths alike.
  std::vector<Outcome> run_mixed(const std::vector<Request>& requests);

  service::ServiceStats stats() const { return service_.stats(); }
  service::SynthesisService& service() { return service_; }
  const service::SynthesisService& service() const { return service_; }

  // Cache key for a yield request: the underlying synthesis request key
  // plus the canonical yield params.  The shard router deliberately routes
  // yield requests by the *plain* request key (see shard/coordinator.cpp)
  // so synth and yield traffic for one spec co-locate on one worker.
  std::string yield_key(const core::OpAmpSpec& spec,
                        const YieldParams& params) const;

 private:
  service::SynthesisService service_;
  mutable std::mutex mu_;
  service::LruCache<std::string, YieldResult> cache_;
};

}  // namespace oasys::yield
