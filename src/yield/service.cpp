#include "yield/service.h"

#include "obs/span.h"
#include "synth/result_json.h"

namespace oasys::yield {

std::string outcome_json(const Outcome& o) {
  return o.is_yield ? yield_result_json(o.yield)
                    : synth::result_json(o.result);
}

std::vector<Request> synthesis_requests(
    const std::vector<core::OpAmpSpec>& specs) {
  std::vector<Request> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) requests[i].spec = specs[i];
  return requests;
}

YieldService::YieldService(tech::Technology tech,
                           synth::SynthOptions synth_opts,
                           service::ServiceOptions opts)
    : service_(std::move(tech), std::move(synth_opts), opts),
      cache_(opts.cache_enabled ? opts.cache_capacity : 0) {}

std::string YieldService::yield_key(const core::OpAmpSpec& spec,
                                    const YieldParams& params) const {
  return service_.request_key(spec) + "|yield;" + params.canonical_string();
}

std::vector<Outcome> YieldService::run_mixed(
    const std::vector<Request>& requests) {
  // Phase 1: every request's underlying synthesis, through the synthesis
  // service — repeats and yield-over-synth pairs dedup to one computation
  // per distinct spec.
  std::vector<core::OpAmpSpec> specs;
  specs.reserve(requests.size());
  for (const Request& r : requests) specs.push_back(r.spec);
  std::vector<service::BatchOutcome> syn = service_.run_batch_outcomes(specs);

  // Phase 2: yield analyses, serially in submission order (the sample
  // fan-out inside analyze_yield is the parallel part).
  std::vector<Outcome> out(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Per-request trace context: events emitted while this request is
    // being answered (including inside analyze_yield on the calling
    // thread) carry its span id.  A no-op for untraced requests.
    obs::ScopedTraceContext trace_ctx(requests[i].trace_id,
                                      requests[i].span_id);
    obs::Span request_span("yield_service",
                           requests[i].is_yield ? "request.yield"
                                                : "request.synth");
    request_span.note(requests[i].spec.name);
    Outcome& o = out[i];
    o.is_yield = requests[i].is_yield;
    o.seconds = syn[i].seconds;
    if (!syn[i].ok()) {
      o.error = std::move(syn[i].error);
      request_span.note("synthesis failed");
      continue;
    }
    if (!o.is_yield) {
      o.result = std::move(syn[i].result);
      continue;
    }
    // Workers and batch front-ends parallelize the sample loop with the
    // same jobs setting the synthesis ran at; jobs is excluded from the
    // cache key because it never changes the result bytes.
    YieldParams params = requests[i].params;
    params.jobs = service_.synth_options().jobs;
    const std::string key = yield_key(requests[i].spec, params);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const YieldResult* hit = cache_.get(key)) {
        o.yield = *hit;
        request_span.note("yield cache hit");
        continue;
      }
    }
    try {
      o.yield = analyze_yield(service_.technology(), syn[i].result, params);
    } catch (const std::exception& e) {
      o.error = e.what();
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    cache_.put(key, o.yield);
  }
  return out;
}

}  // namespace oasys::yield
