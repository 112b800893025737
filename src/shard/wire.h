// Wire protocol for cross-process sharded serving.
//
// The coordinator and its worker processes exchange length-prefixed binary
// frames over pipes.  Every frame is
//
//   magic   u32   0x4f415359 ("OASY")
//   type    u32   FrameType
//   length  u64   payload byte count (sanity-capped, see kMaxPayload)
//   payload length bytes
//
// with all integers little-endian and every double carried as its exact
// IEEE-754 bit pattern (u64), so a value round-trips bit-for-bit — the
// determinism contract ("`oasys shard` output is byte-identical to `oasys
// batch`") starts here.  Malformed input (bad magic, oversized length,
// truncation mid-frame, a payload shorter than its fields claim) raises
// WireError; a clean EOF at a frame boundary is reported as absence of a
// frame, never as an error.  Readers must treat the peer as untrusted: a
// crashed worker can leave a half-written frame behind, and the coordinator
// has to reject it, not crash on it.
//
// Conversation (coordinator -> worker on the worker's stdin, worker ->
// coordinator on its stdout):
//
//   kConfig    technology + synthesis/service options (+ fingerprint
//              hashes the worker re-derives and verifies: schema drift
//              between serializer and struct fails loudly)
//   kRequest*  (sequence id, OpAmpSpec), in global submission order
//   kRun       end of requests; worker computes its batch
//   kResult*   (sequence id, outcome), in the order requests arrived
//   kMetrics   worker's obs registry snapshot + its service counters
//   kDone      clean end of stream
//
// The same frames double as the daemon's session protocol (src/serve/):
// a resident worker loops kRequest*..kRun -> kResult*..kMetrics..kDone
// cycles instead of exiting after the first, a client speaks the
// identical conversation to `oasys serve` over its unix socket, and
// kError carries a session-level refusal (e.g. a technology fingerprint
// that does not match the daemon's) back to the client.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/spec.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "service/service.h"
#include "synth/oasys.h"
#include "tech/technology.h"
#include "yield/yield.h"

namespace oasys::shard {

inline constexpr std::uint32_t kWireMagic = 0x4f415359u;  // "OASY"
// v2: SynthOptions carries tran_mode/tran_rtol/tran_atol; gauge metric
// entries carry their merge mode.
inline constexpr std::uint32_t kWireVersion = 2;
// Upper bound on one frame's payload.  A full SynthesisResult with traces
// is tens of kilobytes; anything near this cap is corruption, not data.
inline constexpr std::uint64_t kMaxPayload = 64ull << 20;  // 64 MiB

enum class FrameType : std::uint32_t {
  kConfig = 1,
  kRequest = 2,
  kRun = 3,
  kResult = 4,
  kMetrics = 5,
  kDone = 6,
  // Session-level refusal (payload: one string).  Daemon protocol only;
  // the batch-mode coordinator/worker conversation never sends it.
  kError = 7,
  // Yield traffic, interleaved with kRequest in the same cycle:
  // kYieldRequest carries (sequence id, OpAmpSpec, YieldParams) and is
  // answered by a kYieldResult (sequence id, outcome) in arrival order.
  // Routing uses the *plain* request key of the spec, so synth and yield
  // traffic for one spec co-locate on one worker and share its caches.
  kYieldRequest = 8,
  kYieldResult = 9,
  // Distributed tracing: a worker drains its obs::TraceEvent stream back
  // as kSpans frames (payload: SpanSet).  Sent only when the cycle's
  // requests carried a trace context; a cycle may carry several (the
  // worker flushes once after reading kRun — preserving the receive
  // markers even if it crashes mid-compute — and again after computing).
  kSpans = 10,
  // Daemon admin introspection: a client sends an empty-payload kStatus
  // and the daemon answers with a kStatus carrying a StatusReport.
  // Answerable before kConfig — `oasys stat` needs no technology.
  kStatus = 11,
};

// Malformed or truncated wire data.  Protocol errors are I/O-shaped and
// caller-recoverable (mark the worker dead, fail its requests), so they are
// exceptions, not diagnostics.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// Append-only payload builder.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // exact bit pattern
  void str(std::string_view v);
  void boolean(bool v) { u8(v ? 1 : 0); }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Bounds-checked payload reader over one frame's bytes; every getter
// throws WireError instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  bool boolean() { return u8() != 0; }

  bool at_end() const { return pos_ == bytes_.size(); }
  // Call after parsing a payload: trailing garbage is a malformed frame.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// ---- struct serialization ---------------------------------------------------
// Field-complete by hand; the kConfig fingerprint check (the worker
// re-derives canonical hashes from the decoded structs and compares them to
// the coordinator's) catches a struct gaining a field without its
// serializer keeping up.

// kConfig payload.  The hashes are the coordinator's canonical fingerprints
// of the tech and options it serialized; the worker re-derives both from
// the decoded structs and refuses to serve on a mismatch, so a round-trip
// that loses a field can never silently produce divergent results.
struct WorkerConfig {
  std::uint32_t version = kWireVersion;
  std::uint64_t shard = 0;  // this worker's shard index (logs/diagnostics)
  tech::Technology tech;
  synth::SynthOptions synth;
  service::ServiceOptions service;
  std::uint64_t tech_hash = 0;  // fnv1a64(tech.canonical_string())
  std::uint64_t opts_hash = 0;  // fnv1a64(canonical_string(synth))
};

void put_config(Writer& w, const WorkerConfig& c);
WorkerConfig get_config(Reader& r);

void put_spec(Writer& w, const core::OpAmpSpec& spec);
core::OpAmpSpec get_spec(Reader& r);

void put_technology(Writer& w, const tech::Technology& t);
tech::Technology get_technology(Reader& r);

void put_synth_options(Writer& w, const synth::SynthOptions& o);
synth::SynthOptions get_synth_options(Reader& r);

void put_service_options(Writer& w, const service::ServiceOptions& o);
service::ServiceOptions get_service_options(Reader& r);

void put_result(Writer& w, const synth::SynthesisResult& result);
synth::SynthesisResult get_result(Reader& r);

// Yield params travel without their jobs field: jobs never changes result
// bytes, and each worker applies its own configured jobs setting.
void put_yield_params(Writer& w, const yield::YieldParams& p);
yield::YieldParams get_yield_params(Reader& r);

void put_yield_result(Writer& w, const yield::YieldResult& result);
yield::YieldResult get_yield_result(Reader& r);

// ---- distributed tracing ----------------------------------------------------

// Optional trailing block on kRequest/kYieldRequest payloads.  Version
// guarded: put_trace_context writes nothing when trace_id == 0, so a
// pre-tracing coordinator's payloads are byte-identical to today's and an
// old worker reading a traced payload fails loudly on the version byte
// rather than misparsing.  get_trace_context returns {0, 0} when the
// reader is already at the payload end (old peer, tracing off).
struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = no tracing for this request
  std::uint64_t span_id = 0;
  bool present() const { return trace_id != 0; }
};

inline constexpr std::uint8_t kTraceContextVersion = 1;

void put_trace_context(Writer& w, const TraceContext& ctx);
TraceContext get_trace_context(Reader& r);

// kSpans payload: one drained slice of a worker's trace-event stream.
struct SpanSet {
  std::uint64_t trace_id = 0;
  std::uint64_t shard = 0;  // emitting worker's shard index
  std::vector<obs::TraceEvent> events;
};

void put_span_set(Writer& w, const SpanSet& s);
SpanSet get_span_set(Reader& r);

void put_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& s);
obs::MetricsSnapshot get_metrics_snapshot(Reader& r);

void put_service_stats(Writer& w, const service::ServiceStats& s);
service::ServiceStats get_service_stats(Reader& r);

// ---- frame I/O over file descriptors ---------------------------------------

struct Frame {
  FrameType type = FrameType::kDone;
  std::string payload;
};

// Writes one frame; retries short writes and EINTR.  Returns false when the
// peer is gone (EPIPE/closed fd) — callers treat that as a dead worker, so
// SIGPIPE must be ignored or blocked in the writing process.
bool write_frame(int fd, FrameType type, std::string_view payload);

// One frame as raw stream bytes (header + payload), for callers that
// buffer writes themselves (the serve event loop's non-blocking queues).
std::string frame_bytes(FrameType type, std::string_view payload);

// Reads one frame.  Returns false on clean EOF at a frame boundary; throws
// WireError on bad magic, an oversized length, or truncation mid-frame.
bool read_frame(int fd, Frame* out);

// Incremental frame parser for event-loop readers: feed() whatever bytes
// poll() made available, then drain complete frames with next().  Header
// validation (magic, type, length cap) happens as soon as the 16 header
// bytes are buffered, so garbage fails before its claimed payload is ever
// awaited.  Throws WireError exactly where read_frame would.
class FrameDecoder {
 public:
  void feed(std::string_view bytes) { buf_.append(bytes); }
  // Extracts the next complete frame; false when more bytes are needed.
  bool next(Frame* out);
  // True when buffered bytes end mid-frame — EOF here is a truncation,
  // not a clean close.
  bool mid_frame() const { return !buf_.empty(); }

 private:
  std::string buf_;
};

// Scoped SIGPIPE suppression for frame writers.  write_frame reports a
// vanished peer by returning false, which requires EPIPE instead of a
// fatal signal — but signal dispositions are process-global, and a
// library entry point must not clobber the embedding application's
// handler.  This saves the previous disposition and restores it on scope
// exit (the serve event loop, its client, and run_sharded_requests all
// write frames under one of these).
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() : prev_(std::signal(SIGPIPE, SIG_IGN)) {}
  ~ScopedSigpipeIgnore() {
    if (prev_ != SIG_ERR) std::signal(SIGPIPE, prev_);
  }
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  void (*prev_)(int);
};

}  // namespace oasys::shard
