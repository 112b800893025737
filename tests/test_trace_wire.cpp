// Distributed-tracing protocol suite.
//
// Three contracts, in order:
//   * wire round trips: the optional trace-context block on request
//     payloads and the kSpans/kStatus payloads survive serialization
//     bit-for-bit, and every malformed variant (truncation, bad version,
//     corrupt enum, implausible counts) raises WireError instead of
//     misparsing;
//   * determinism: enabling tracing changes no deterministic byte — an
//     untraced request payload is byte-identical to a pre-tracing one,
//     and a traced fleet run returns the same oasys.result.v1 bytes as an
//     untraced one (the CLI-level cross of jobs x workers x daemon lives
//     in check_trace_determinism.cmake);
//   * failure windows: a worker that crashes or wedges mid-cycle has
//     already flushed its receive markers, so the merged timeline shows
//     what the dead worker had accepted (the satellite regression for
//     partial span flushing).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/span.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/status.h"
#include "shard/coordinator.h"
#include "shard/wire.h"
#include "synth/result_json.h"
#include "synth/test_cases.h"
#include "tech/builtin.h"
#include "yield/service.h"
#include "yield/yield.h"

#ifndef OASYS_CLI_PATH
#error "test_trace_wire requires OASYS_CLI_PATH (see tests/CMakeLists.txt)"
#endif

namespace {

using namespace oasys;

// ---- trace-context wire round trips -----------------------------------------

TEST(TraceContextWire, PresentContextRoundTrips) {
  shard::Writer w;
  shard::put_trace_context(w, {0xfeedbeefcafe1234ull, 0x0ddball});
  shard::Reader r(w.bytes());
  const shard::TraceContext ctx = shard::get_trace_context(r);
  r.expect_end();
  EXPECT_EQ(ctx.trace_id, 0xfeedbeefcafe1234ull);
  EXPECT_EQ(ctx.span_id, 0x0ddball);
  EXPECT_TRUE(ctx.present());
}

TEST(TraceContextWire, AbsentContextWritesNoBytes) {
  // The byte-identity contract starts here: tracing off adds nothing to
  // the payload, so a traced-capable coordinator and a pre-tracing one
  // emit identical request frames.
  shard::Writer w;
  shard::put_trace_context(w, {});
  EXPECT_TRUE(w.bytes().empty());

  shard::Reader r(w.bytes());
  const shard::TraceContext ctx = shard::get_trace_context(r);
  EXPECT_FALSE(ctx.present());
  EXPECT_EQ(ctx.span_id, 0u);
}

TEST(TraceContextWire, UntracedRequestPayloadMatchesPreTracingBytes) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  shard::Writer pre;  // what a pre-tracing coordinator wrote
  pre.u64(7);
  shard::put_spec(pre, spec);

  shard::Writer post;  // same request through the trace-aware path
  post.u64(7);
  shard::put_spec(post, spec);
  shard::put_trace_context(post, {0, 0});

  EXPECT_EQ(pre.bytes(), post.bytes());
}

TEST(TraceContextWire, RejectsUnknownVersion) {
  shard::Writer w;
  w.u8(shard::kTraceContextVersion + 1);
  w.u64(1);
  w.u64(2);
  shard::Reader r(w.bytes());
  EXPECT_THROW(shard::get_trace_context(r), shard::WireError);
}

TEST(TraceContextWire, RejectsZeroTraceIdInPresentBlock) {
  shard::Writer w;
  w.u8(shard::kTraceContextVersion);
  w.u64(0);  // "present but no trace" is a contradiction, not a default
  w.u64(2);
  shard::Reader r(w.bytes());
  EXPECT_THROW(shard::get_trace_context(r), shard::WireError);
}

TEST(TraceContextWire, RejectsTruncatedContext) {
  shard::Writer w;
  shard::put_trace_context(w, {0x1111, 0x2222});
  const std::string full = w.bytes();
  // Every strict prefix (except the empty one, which means "absent") must
  // fail loudly rather than yield a half-read context.
  for (std::size_t len = 1; len < full.size(); ++len) {
    shard::Reader r(std::string_view(full).substr(0, len));
    EXPECT_THROW(shard::get_trace_context(r), shard::WireError)
        << "prefix length " << len;
  }
}

// ---- span-set wire round trips ----------------------------------------------

obs::TraceEvent sample_event(obs::TraceEvent::Kind kind, int i) {
  obs::TraceEvent e;
  e.kind = kind;
  e.depth = i;
  e.name = "span-" + std::to_string(i);
  e.scope = "scope";
  e.code = i % 2 == 0 ? "ok" : "";
  e.detail = "detail text";
  e.index = static_cast<std::uint64_t>(i);
  e.seconds = 0.125 * i;
  e.ts_us = 1'000'000 + static_cast<std::uint64_t>(i);
  e.tid = static_cast<std::uint64_t>(i % 3);
  e.trace_id = 0xabcdef;
  e.span_id = 0x1234 + static_cast<std::uint64_t>(i);
  return e;
}

TEST(SpanSetWire, RoundTripsEveryField) {
  shard::SpanSet in;
  in.trace_id = 0xabcdef;
  in.shard = 3;
  in.events.push_back(sample_event(obs::TraceEvent::Kind::kSpanBegin, 0));
  in.events.push_back(sample_event(obs::TraceEvent::Kind::kSpanEnd, 1));
  in.events.push_back(sample_event(obs::TraceEvent::Kind::kInstant, 2));

  shard::Writer w;
  shard::put_span_set(w, in);
  shard::Reader r(w.bytes());
  const shard::SpanSet out = shard::get_span_set(r);
  r.expect_end();

  EXPECT_EQ(out.trace_id, in.trace_id);
  EXPECT_EQ(out.shard, in.shard);
  ASSERT_EQ(out.events.size(), in.events.size());
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    const obs::TraceEvent& a = in.events[i];
    const obs::TraceEvent& b = out.events[i];
    EXPECT_EQ(b.kind, a.kind) << i;
    EXPECT_EQ(b.depth, a.depth) << i;
    EXPECT_EQ(b.name, a.name) << i;
    EXPECT_EQ(b.scope, a.scope) << i;
    EXPECT_EQ(b.code, a.code) << i;
    EXPECT_EQ(b.detail, a.detail) << i;
    EXPECT_EQ(b.index, a.index) << i;
    EXPECT_EQ(b.seconds, a.seconds) << i;
    EXPECT_EQ(b.ts_us, a.ts_us) << i;
    EXPECT_EQ(b.tid, a.tid) << i;
    EXPECT_EQ(b.trace_id, a.trace_id) << i;
    EXPECT_EQ(b.span_id, a.span_id) << i;
  }
}

TEST(SpanSetWire, RejectsCorruptEventKind) {
  shard::SpanSet in;
  in.trace_id = 1;
  in.events.push_back(sample_event(obs::TraceEvent::Kind::kInstant, 0));
  shard::Writer w;
  shard::put_span_set(w, in);
  std::string bytes = w.take();
  // The event kind is the first byte after trace_id/shard/count.
  bytes[24] = 0x7f;
  shard::Reader r(bytes);
  EXPECT_THROW(shard::get_span_set(r), shard::WireError);
}

TEST(SpanSetWire, RejectsImplausibleEventCount) {
  shard::Writer w;
  w.u64(1);  // trace_id
  w.u64(0);  // shard
  w.u64(shard::kMaxPayload);  // count no real payload could hold
  shard::Reader r(w.bytes());
  EXPECT_THROW(shard::get_span_set(r), shard::WireError);
}

TEST(SpanSetWire, RejectsTruncatedPayload) {
  shard::SpanSet in;
  in.trace_id = 9;
  in.events.push_back(sample_event(obs::TraceEvent::Kind::kSpanEnd, 0));
  shard::Writer w;
  shard::put_span_set(w, in);
  const std::string full = w.bytes();
  shard::Reader r(std::string_view(full).substr(0, full.size() - 3));
  EXPECT_THROW(shard::get_span_set(r), shard::WireError);
}

// ---- status-report wire round trips -----------------------------------------

TEST(StatusWire, RoundTripsEveryField) {
  serve::StatusReport in;
  in.uptime_s = 12.5;
  in.draining = true;
  in.sessions_total = 7;
  in.sessions_active = 2;
  in.requests_total = 40;
  in.batches = 5;
  in.in_flight = 3;
  in.shared_cache_size = 17;
  in.shared_cache_capacity = 256;
  in.shared_cache_hits = 9;
  in.shared_cache_misses = 31;
  in.respawns = 1;
  in.worker_timeouts = 2;
  in.worker_errors = 4;
  in.lu_analyses = 11;
  in.lu_refactors = 900;
  in.lu_replans = 3;
  serve::WorkerStatus wk;
  wk.shard = 1;
  wk.pid = 4242;
  wk.alive = true;
  wk.in_flight_cycles = 1;
  wk.requests_served = 19;
  wk.respawns = 1;
  wk.backoff_s = 0.1;
  in.workers.push_back(wk);

  shard::Writer w;
  serve::put_status_report(w, in);
  shard::Reader r(w.bytes());
  const serve::StatusReport out = serve::get_status_report(r);
  r.expect_end();

  EXPECT_EQ(out.uptime_s, in.uptime_s);
  EXPECT_EQ(out.draining, in.draining);
  EXPECT_EQ(out.sessions_total, in.sessions_total);
  EXPECT_EQ(out.sessions_active, in.sessions_active);
  EXPECT_EQ(out.requests_total, in.requests_total);
  EXPECT_EQ(out.batches, in.batches);
  EXPECT_EQ(out.in_flight, in.in_flight);
  EXPECT_EQ(out.shared_cache_size, in.shared_cache_size);
  EXPECT_EQ(out.shared_cache_capacity, in.shared_cache_capacity);
  EXPECT_EQ(out.shared_cache_hits, in.shared_cache_hits);
  EXPECT_EQ(out.shared_cache_misses, in.shared_cache_misses);
  EXPECT_EQ(out.respawns, in.respawns);
  EXPECT_EQ(out.worker_timeouts, in.worker_timeouts);
  EXPECT_EQ(out.worker_errors, in.worker_errors);
  EXPECT_EQ(out.lu_analyses, in.lu_analyses);
  EXPECT_EQ(out.lu_refactors, in.lu_refactors);
  EXPECT_EQ(out.lu_replans, in.lu_replans);
  ASSERT_EQ(out.workers.size(), 1u);
  EXPECT_EQ(out.workers[0].shard, wk.shard);
  EXPECT_EQ(out.workers[0].pid, wk.pid);
  EXPECT_EQ(out.workers[0].alive, wk.alive);
  EXPECT_EQ(out.workers[0].retired, wk.retired);
  EXPECT_EQ(out.workers[0].in_flight_cycles, wk.in_flight_cycles);
  EXPECT_EQ(out.workers[0].requests_served, wk.requests_served);
  EXPECT_EQ(out.workers[0].respawns, wk.respawns);
  EXPECT_EQ(out.workers[0].backoff_s, wk.backoff_s);
}

TEST(StatusWire, RejectsImplausibleWorkerCount) {
  serve::StatusReport in;
  shard::Writer w;
  serve::put_status_report(w, in);
  std::string bytes = w.take();
  // Overwrite the trailing worker count (last 8 bytes) with an absurd one.
  for (std::size_t i = bytes.size() - 8; i < bytes.size(); ++i) {
    bytes[i] = '\xff';
  }
  shard::Reader r(bytes);
  EXPECT_THROW(serve::get_status_report(r), shard::WireError);
}

TEST(StatusWire, JsonCarriesSchemaAndHitRatio) {
  serve::StatusReport s;
  s.shared_cache_hits = 3;
  s.shared_cache_misses = 1;
  const std::string json = serve::status_json(s);
  EXPECT_NE(json.find("\"schema\": \"oasys.status.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"hit_ratio\": 0.75"), std::string::npos);
  EXPECT_DOUBLE_EQ(s.shared_cache_hit_ratio(), 0.75);
}

// ---- frame-type acceptance --------------------------------------------------

TEST(TraceFrames, DecoderAcceptsSpansAndStatusFrames) {
  shard::FrameDecoder dec;
  dec.feed(shard::frame_bytes(shard::FrameType::kSpans, "payload"));
  dec.feed(shard::frame_bytes(shard::FrameType::kStatus, ""));
  shard::Frame f;
  ASSERT_TRUE(dec.next(&f));
  EXPECT_EQ(f.type, shard::FrameType::kSpans);
  EXPECT_EQ(f.payload, "payload");
  ASSERT_TRUE(dec.next(&f));
  EXPECT_EQ(f.type, shard::FrameType::kStatus);
  EXPECT_FALSE(dec.next(&f));
  EXPECT_FALSE(dec.mid_frame());
}

TEST(TraceFrames, DecoderRejectsTypePastStatus) {
  shard::FrameDecoder dec;
  dec.feed(shard::frame_bytes(
      static_cast<shard::FrameType>(
          static_cast<std::uint32_t>(shard::FrameType::kStatus) + 1),
      ""));
  shard::Frame f;
  EXPECT_THROW(dec.next(&f), shard::WireError);
}

// ---- id minting and context scoping -----------------------------------------

TEST(TraceIds, MintedIdsAreNonzeroAndSpanIdsDeterministic) {
  const std::uint64_t trace = obs::mint_trace_id();
  EXPECT_NE(trace, 0u);
  EXPECT_EQ(obs::span_id_for(trace, 0), obs::span_id_for(trace, 0));
  EXPECT_NE(obs::span_id_for(trace, 0), obs::span_id_for(trace, 1));
  EXPECT_NE(obs::span_id_for(trace, 0), 0u);
}

TEST(TraceIds, ScopedContextNestsAndRestores) {
  EXPECT_EQ(obs::current_trace_id(), 0u);
  {
    obs::ScopedTraceContext outer(10, 20);
    EXPECT_EQ(obs::current_trace_id(), 10u);
    EXPECT_EQ(obs::current_span_id(), 20u);
    {
      obs::ScopedTraceContext inner(30, 40);
      EXPECT_EQ(obs::current_trace_id(), 30u);
      EXPECT_EQ(obs::current_span_id(), 40u);
    }
    EXPECT_EQ(obs::current_trace_id(), 10u);
    EXPECT_EQ(obs::current_span_id(), 20u);
  }
  EXPECT_EQ(obs::current_trace_id(), 0u);
}

// ---- traced fleet runs ------------------------------------------------------

struct ScopedEnv {
  std::string name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    ::setenv(n, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

// Drains the process-global collector so a prior test's events never leak
// into this one's timeline (and vice versa).
struct ScopedGlobalTracing {
  ScopedGlobalTracing() {
    obs::drain_global_trace();
    obs::set_tracing_enabled(true);
  }
  ~ScopedGlobalTracing() {
    obs::set_tracing_enabled(false);
    obs::drain_global_trace();
  }
};

shard::ShardOptions traced_shard_options(std::size_t workers,
                                         std::uint64_t trace_id) {
  shard::ShardOptions o;
  o.workers = workers;
  o.worker_command = OASYS_CLI_PATH;
  o.trace_id = trace_id;
  return o;
}

std::vector<yield::Request> mixed_requests() {
  std::vector<yield::Request> requests;
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    yield::Request synth_req;
    synth_req.spec = spec;
    requests.push_back(synth_req);
  }
  yield::Request yield_req;
  yield_req.spec = synth::paper_test_cases()[0];
  yield_req.is_yield = true;
  yield_req.params.samples = 4;
  yield_req.params.seed = 3;
  requests.push_back(yield_req);
  return requests;
}

TEST(TracedShard, WorkersReturnCorrelatedSpanSets) {
  ScopedGlobalTracing tracing;
  const std::uint64_t trace_id = obs::mint_trace_id();
  const tech::Technology t = tech::five_micron();
  const std::vector<yield::Request> requests = mixed_requests();

  const shard::ShardReport report = shard::run_sharded_requests(
      t, {}, requests, traced_shard_options(2, trace_id));
  ASSERT_TRUE(report.infra_ok());

  // Every worker flushes at least its receive markers and its compute
  // spans, all under the coordinator's trace id.
  ASSERT_FALSE(report.worker_spans.empty());
  std::size_t recv_markers = 0;
  std::size_t request_spans = 0;
  for (const shard::SpanSet& set : report.worker_spans) {
    EXPECT_EQ(set.trace_id, trace_id);
    EXPECT_LT(set.shard, 2u);
    for (const obs::TraceEvent& e : set.events) {
      if (e.name == "request.recv") {
        ++recv_markers;
        EXPECT_EQ(e.trace_id, trace_id);
        // The recv marker's span id matches the coordinator's derivation
        // for that sequence number — correlation without a round trip.
        EXPECT_EQ(e.span_id, obs::span_id_for(trace_id, e.index));
      }
      if (e.kind == obs::TraceEvent::Kind::kSpanEnd &&
          (e.name == "yield_service/request.synth" ||
           e.name == "yield_service/request.yield")) {
        ++request_spans;
        EXPECT_EQ(e.trace_id, trace_id);
        EXPECT_NE(e.ts_us, 0u);
      }
    }
  }
  EXPECT_EQ(recv_markers, requests.size());
  EXPECT_EQ(request_spans, requests.size());

  // The coordinator's own lane carries one routing marker per request.
  const std::vector<obs::TraceEvent> local = obs::drain_global_trace();
  std::size_t route_markers = 0;
  for (const obs::TraceEvent& e : local) {
    if (e.name == "request.route") {
      ++route_markers;
      EXPECT_EQ(e.trace_id, trace_id);
    }
  }
  EXPECT_EQ(route_markers, requests.size());
}

TEST(TracedShard, TracingChangesNoResultBytes) {
  const tech::Technology t = tech::five_micron();
  const std::vector<yield::Request> requests = mixed_requests();

  const shard::ShardReport plain = shard::run_sharded_requests(
      t, {}, requests, traced_shard_options(2, 0));
  ASSERT_TRUE(plain.infra_ok());

  ScopedGlobalTracing tracing;
  const shard::ShardReport traced = shard::run_sharded_requests(
      t, {}, requests, traced_shard_options(2, obs::mint_trace_id()));
  ASSERT_TRUE(traced.infra_ok());

  EXPECT_TRUE(plain.worker_spans.empty());
  EXPECT_FALSE(traced.worker_spans.empty());
  ASSERT_EQ(plain.outcomes.size(), traced.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    ASSERT_TRUE(plain.outcomes[i].ok());
    ASSERT_TRUE(traced.outcomes[i].ok());
    if (requests[i].is_yield) {
      EXPECT_EQ(yield::yield_result_json(traced.outcomes[i].yield),
                yield::yield_result_json(plain.outcomes[i].yield))
          << i;
    } else {
      EXPECT_EQ(synth::result_json(traced.outcomes[i].result),
                synth::result_json(plain.outcomes[i].result))
          << i;
    }
  }
}

// The satellite regression: a worker killed mid-cycle must leave its
// receive markers in the merged timeline.  The worker flushes a kSpans
// frame right after reading kRun — before any synthesis — so the crash
// hook (which fires just before the victim spec's result write) cannot
// take the failure window's spans down with it.
TEST(TracedShard, CrashedWorkerStillDeliversItsReceiveMarkers) {
  const ScopedEnv crash("OASYS_SHARD_TEST_CRASH", "B");
  ScopedGlobalTracing tracing;
  const std::uint64_t trace_id = obs::mint_trace_id();
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  std::vector<yield::Request> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    requests[i].spec = specs[i];
  }

  const shard::ShardReport report = shard::run_sharded_requests(
      t, {}, requests, traced_shard_options(2, trace_id));
  EXPECT_FALSE(report.infra_ok());

  std::size_t victim_shard = 2;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == "B") victim_shard = report.outcomes[i].shard;
  }
  ASSERT_LT(victim_shard, 2u);

  // The dead worker's receive markers made it back before the crash.
  bool victim_recv_b = false;
  for (const shard::SpanSet& set : report.worker_spans) {
    if (set.shard != victim_shard) continue;
    EXPECT_EQ(set.trace_id, trace_id);
    for (const obs::TraceEvent& e : set.events) {
      if (e.name == "request.recv" && e.scope == "B") victim_recv_b = true;
    }
  }
  EXPECT_TRUE(victim_recv_b)
      << "the crashed worker's receive markers are missing from the "
         "timeline";

  // The coordinator marks the failure itself in its own lane.
  bool failure_marker = false;
  for (const obs::TraceEvent& e : obs::drain_global_trace()) {
    if (e.name == "worker.failed" && e.index == victim_shard) {
      failure_marker = true;
      EXPECT_EQ(e.trace_id, trace_id);
    }
  }
  EXPECT_TRUE(failure_marker);
}

// Same contract for the deadline path: a wedged worker is SIGKILLed with
// no chance to flush anything else, so the pre-compute flush is the only
// reason its markers exist at all.
TEST(TracedShard, WedgeKilledWorkerStillDeliversItsReceiveMarkers) {
  const ScopedEnv crash("OASYS_SHARD_TEST_CRASH", "A:wedge");
  ScopedGlobalTracing tracing;
  const std::uint64_t trace_id = obs::mint_trace_id();
  const tech::Technology t = tech::five_micron();
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  std::vector<yield::Request> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    requests[i].spec = specs[i];
  }

  shard::ShardOptions o = traced_shard_options(2, trace_id);
  o.worker_timeout_s = 1.0;
  const shard::ShardReport report =
      shard::run_sharded_requests(t, {}, requests, o);
  EXPECT_FALSE(report.infra_ok());

  std::size_t victim_shard = 2;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == "A") victim_shard = report.outcomes[i].shard;
  }
  ASSERT_LT(victim_shard, 2u);
  ASSERT_TRUE(report.workers[victim_shard].timed_out);

  bool victim_recv_a = false;
  for (const shard::SpanSet& set : report.worker_spans) {
    if (set.shard != victim_shard) continue;
    for (const obs::TraceEvent& e : set.events) {
      if (e.name == "request.recv" && e.scope == "A") victim_recv_a = true;
    }
  }
  EXPECT_TRUE(victim_recv_a)
      << "the wedged worker's receive markers are missing from the "
         "timeline";

  bool timeout_marker = false;
  for (const obs::TraceEvent& e : obs::drain_global_trace()) {
    if (e.name == "worker.failed" && e.index == victim_shard &&
        e.code == "timeout") {
      timeout_marker = true;
    }
  }
  EXPECT_TRUE(timeout_marker);
}

// ---- daemon-served tracing --------------------------------------------------

// Daemon leg of the determinism cross: a traced batch served by a
// resident `oasys serve` pool returns byte-identical results to an
// untraced local run, the daemon forwards the workers' span sets to the
// traced client, and kStatus answers with live fleet state while the
// daemon is up.
TEST(TracedServe, DaemonServedTraceMatchesLocalBytesAndAnswersStatus) {
  const tech::Technology t = tech::five_micron();
  std::vector<yield::Request> requests = mixed_requests();

  yield::YieldService local(t, {});
  const std::vector<yield::Outcome> expected = local.run_mixed(requests);

  serve::ServeOptions so;
  so.socket_path = "/tmp/oasys-trace-test-" + std::to_string(::getpid()) +
                   ".sock";
  so.workers = 2;
  so.worker_command = OASYS_CLI_PATH;
  serve::Server server(t, {}, so);
  std::thread th([&server] { server.run(); });

  ScopedGlobalTracing tracing;
  const std::uint64_t trace_id = obs::mint_trace_id();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].trace_id = trace_id;
    requests[i].span_id = obs::span_id_for(trace_id, i);
  }

  serve::MixedConnectReport report;
  serve::StatusReport status;
  try {
    // The first connect races the daemon's bind.
    for (int attempt = 0;; ++attempt) {
      try {
        report = serve::run_connected_mixed(so.socket_path, t, {}, requests);
        break;
      } catch (const std::runtime_error& e) {
        if (attempt >= 1000 || std::string(e.what()).find(
                                   "cannot connect") == std::string::npos) {
          throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    status = serve::fetch_status(so.socket_path);
  } catch (...) {
    server.request_stop();
    th.join();
    ::unlink(so.socket_path.c_str());
    throw;
  }
  server.request_stop();
  th.join();
  ::unlink(so.socket_path.c_str());

  ASSERT_EQ(report.outcomes.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(report.outcomes[i].ok()) << report.outcomes[i].error;
    if (requests[i].is_yield) {
      EXPECT_EQ(yield::yield_result_json(report.outcomes[i].yield),
                yield::yield_result_json(expected[i].yield))
          << i;
    } else {
      EXPECT_EQ(synth::result_json(report.outcomes[i].result),
                synth::result_json(expected[i].result))
          << i;
    }
  }

  // The daemon forwarded the workers' span sets, correlated by trace id,
  // with every request's receive marker present.
  ASSERT_FALSE(report.worker_spans.empty());
  std::size_t recv_markers = 0;
  for (const shard::SpanSet& set : report.worker_spans) {
    EXPECT_EQ(set.trace_id, trace_id);
    for (const obs::TraceEvent& e : set.events) {
      if (e.name == "request.recv") ++recv_markers;
    }
  }
  EXPECT_EQ(recv_markers, requests.size());

  // Live fleet state over the admin frame.
  ASSERT_EQ(status.workers.size(), 2u);
  EXPECT_EQ(status.requests_total, requests.size());
  EXPECT_EQ(status.batches, 1u);
  EXPECT_EQ(status.in_flight, 0u);
  std::uint64_t served = 0;
  for (const serve::WorkerStatus& wk : status.workers) {
    EXPECT_TRUE(wk.alive);
    EXPECT_GT(wk.pid, 0);
    served += wk.requests_served;
  }
  EXPECT_EQ(served, requests.size());
  // The yield request's DC solves planned and refactored the Newton LU in
  // a worker, and the daemon summed the workers' counts.
  EXPECT_GT(status.lu_analyses, 0u);
  EXPECT_GT(status.lu_refactors, 0u);
}

// ---- chrome trace-event export ----------------------------------------------

TEST(ChromeTrace, MergedTimelineCarriesLanesAndCorrelation) {
  obs::TraceProcess coordinator;
  coordinator.pid = 0;
  coordinator.name = "coordinator";
  coordinator.events.push_back(
      sample_event(obs::TraceEvent::Kind::kInstant, 1));

  obs::TraceProcess worker;
  worker.pid = 1;
  worker.name = "worker 0";
  worker.events.push_back(sample_event(obs::TraceEvent::Kind::kSpanEnd, 2));

  const std::string json =
      obs::trace_chrome_json({coordinator, worker}, 0xabcdefull);
  // Lane metadata, one complete event, one instant, and the trace id.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"0000000000abcdef\""),
            std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

}  // namespace
