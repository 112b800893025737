#include "shard/worker.h"

#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "shard/wire.h"
#include "spice/sim_options.h"
#include "synth/opamp_design.h"
#include "util/fingerprint.h"
#include "yield/service.h"

namespace oasys::shard {

namespace {

// Deterministic crash injection for the fault-path tests; see worker.h.
struct CrashHook {
  std::string spec_name;
  bool on_receive = false;
  bool wedge = false;

  bool hits(const std::string& name) const {
    return !spec_name.empty() && name == spec_name;
  }

  // Fires the pre-result hook: exits, or wedges (alive, never writing
  // again) so the coordinator's worker-timeout deadline has something
  // real to kill.
  [[noreturn]] void fire() const {
    if (wedge) {
      for (;;) ::pause();
    }
    std::_Exit(kCrashHookExitCode);
  }

  static CrashHook from_env() {
    CrashHook h;
    const char* v = std::getenv("OASYS_SHARD_TEST_CRASH");
    if (v == nullptr || *v == '\0') return h;
    std::string s(v);
    const auto strip = [&s](std::string_view suffix) {
      if (s.size() > suffix.size() &&
          std::string_view(s).substr(s.size() - suffix.size()) == suffix) {
        s.resize(s.size() - suffix.size());
        return true;
      }
      return false;
    };
    h.on_receive = strip(":recv");
    if (!h.on_receive) h.wedge = strip(":wedge");
    h.spec_name = std::move(s);
    return h;
  }
};

// The coordinator's transient-engine selection must govern every
// simulation this worker runs: TranOptions built deep inside measurement
// code resolve kDefault against the *process* default, which in a worker
// is this process — not the coordinator's environment or flags.
void apply_config_defaults(const WorkerConfig& config) {
  sim::set_tran_mode_default(sim::resolve_tran_mode(config.synth.tran_mode));
  sim::set_tran_tolerance_default(config.synth.tran_rtol,
                                  config.synth.tran_atol);
}

// stderr is inherited from the coordinator, so the operator sees why a
// worker refused; write(2) directly because the process is about to exit.
int die(const std::string& msg) {
  const std::string line = "oasys shard-worker: " + msg + "\n";
  const ssize_t ignored = ::write(2, line.data(), line.size());
  (void)ignored;
  return 3;
}

// Decodes one kRequest or kYieldRequest payload into (seq, mixed request).
void decode_request(const Frame& frame, std::uint64_t* seq,
                    yield::Request* req) {
  Reader r(frame.payload);
  *seq = r.u64();
  req->spec = get_spec(r);
  if (frame.type == FrameType::kYieldRequest) {
    req->is_yield = true;
    req->params = get_yield_params(r);
  }
  // Optional trailing trace context (version-guarded): absent on payloads
  // from an untraced coordinator, so those bytes parse exactly as before.
  const TraceContext ctx = get_trace_context(r);
  req->trace_id = ctx.trace_id;
  req->span_id = ctx.span_id;
  r.expect_end();
}

// The cycle's trace id: the first traced request's (the coordinator mints
// one id per batch, so they all agree); 0 when the cycle is untraced.
std::uint64_t cycle_trace_id(const std::vector<yield::Request>& requests) {
  for (const yield::Request& r : requests) {
    if (r.trace_id != 0) return r.trace_id;
  }
  return 0;
}

// Marks every request as received, under its own span id — flushed to the
// coordinator *before* compute starts, so a worker that crashes or wedges
// mid-batch has already delivered the receive markers that frame the
// failure window in the merged timeline.
void emit_recv_markers(const std::vector<std::uint64_t>& seqs,
                       const std::vector<yield::Request>& requests) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    obs::ScopedTraceContext ctx(requests[i].trace_id, requests[i].span_id);
    obs::emit_instant("request.recv", requests[i].spec.name,
                      requests[i].is_yield ? "yield" : "synth", "", seqs[i]);
  }
}

// Drains the global trace collector into one kSpans frame.  Empty drains
// write nothing; a false return means the peer is gone.
bool flush_spans(int out_fd, std::uint64_t trace_id, std::uint64_t shard) {
  SpanSet set;
  set.trace_id = trace_id;
  set.shard = shard;
  set.events = obs::drain_global_trace();
  if (set.events.empty()) return true;
  Writer w;
  put_span_set(w, set);
  return write_frame(out_fd, FrameType::kSpans, w.bytes());
}

// Scoped per-cycle tracing: enables the global collector only for traced
// cycles and clears any stale events on both ends, so an untraced cycle
// after a traced one never leaks the previous timeline.
class ScopedCycleTracing {
 public:
  explicit ScopedCycleTracing(bool enable) : enabled_(enable) {
    if (enabled_) {
      obs::drain_global_trace();
      obs::set_tracing_enabled(true);
    }
  }
  ~ScopedCycleTracing() {
    if (enabled_) {
      obs::set_tracing_enabled(false);
      obs::drain_global_trace();
    }
  }
  ScopedCycleTracing(const ScopedCycleTracing&) = delete;
  ScopedCycleTracing& operator=(const ScopedCycleTracing&) = delete;

 private:
  bool enabled_;
};

// Writes one outcome back: kResult for synthesis, kYieldResult for yield,
// both carrying (seq, ok, result-or-error).
bool write_outcome(int out_fd, std::uint64_t seq, const yield::Outcome& o) {
  Writer w;
  w.u64(seq);
  w.boolean(o.ok());
  if (!o.ok()) {
    w.str(o.error);
  } else if (o.is_yield) {
    put_yield_result(w, o.yield);
  } else {
    put_result(w, o.result);
  }
  return write_frame(
      out_fd, o.is_yield ? FrameType::kYieldResult : FrameType::kResult,
      w.bytes());
}

}  // namespace

int worker_session_main(int in_fd, int out_fd) {
  // write_frame reports a vanished peer by returning false; that only works
  // if a write to a closed pipe raises EPIPE instead of killing us.
  std::signal(SIGPIPE, SIG_IGN);
  const CrashHook crash = CrashHook::from_env();

  try {
    Frame frame;
    if (!read_frame(in_fd, &frame)) {
      return die("peer closed the pipe before sending kConfig");
    }
    if (frame.type != FrameType::kConfig) {
      return die("first frame was not kConfig");
    }
    Reader config_reader(frame.payload);
    const WorkerConfig config = get_config(config_reader);
    config_reader.expect_end();
    // Schema-drift guard: re-derive the canonical fingerprints from what
    // actually survived the round trip.  A serializer that dropped or
    // reordered a field produces a different canonical string here, and a
    // worker computing on drifted inputs must never serve.
    if (util::fnv1a64(config.tech.canonical_string()) != config.tech_hash ||
        util::fnv1a64(synth::canonical_string(config.synth)) !=
            config.opts_hash) {
      return die(
          "config fingerprint mismatch: decoded technology/options do not "
          "hash to the coordinator's canonical fingerprints (wire schema "
          "drift)");
    }
    apply_config_defaults(config);

    // One resident service for the whole session: its private LRU caches
    // (synthesis results and completed yield analyses) are the warm tier
    // that makes the daemon pay off across requests.
    yield::YieldService service(config.tech, config.synth, config.service);

    for (;;) {
      std::vector<std::uint64_t> seqs;
      std::vector<yield::Request> requests;
      bool cycle_started = false;
      for (;;) {
        if (!read_frame(in_fd, &frame)) {
          if (!cycle_started) return 0;  // clean drain at a cycle boundary
          return die("peer closed the pipe mid-cycle before kRun");
        }
        cycle_started = true;
        if (frame.type == FrameType::kRun) {
          Reader r(frame.payload);
          r.expect_end();
          break;
        }
        if (frame.type != FrameType::kRequest &&
            frame.type != FrameType::kYieldRequest) {
          return die("unexpected frame before kRun");
        }
        std::uint64_t seq = 0;
        yield::Request req;
        decode_request(frame, &seq, &req);
        if (crash.on_receive && crash.hits(req.spec.name)) crash.fire();
        seqs.push_back(seq);
        requests.push_back(std::move(req));
      }

      // Each kMetrics frame carries this cycle's deltas only, so the
      // coordinator can accumulate across cycles without double counting;
      // ServiceStats stay cumulative (the resident cache's whole history).
      obs::Registry::global().reset();

      const std::uint64_t trace_id = cycle_trace_id(requests);
      ScopedCycleTracing tracing(trace_id != 0);
      if (trace_id != 0) {
        emit_recv_markers(seqs, requests);
        // Early flush: the receive markers reach the daemon before any
        // compute, surviving a mid-batch crash or wedge.
        if (!flush_spans(out_fd, trace_id, config.shard)) {
          return die("peer pipe closed while sending spans");
        }
      }

      const std::vector<yield::Outcome> outcomes =
          service.run_mixed(requests);

      if (trace_id != 0 &&
          !flush_spans(out_fd, trace_id, config.shard)) {
        return die("peer pipe closed while sending spans");
      }

      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!crash.on_receive && crash.hits(requests[i].spec.name)) {
          crash.fire();
        }
        if (!write_outcome(out_fd, seqs[i], outcomes[i])) {
          return die("peer pipe closed while sending results");
        }
      }

      Writer w;
      put_metrics_snapshot(w, obs::Registry::global().snapshot());
      put_service_stats(w, service.stats());
      if (!write_frame(out_fd, FrameType::kMetrics, w.bytes()) ||
          !write_frame(out_fd, FrameType::kDone, {})) {
        return die("peer pipe closed while finishing a cycle");
      }
    }
  } catch (const WireError& e) {
    return die(std::string("malformed frame from peer: ") + e.what());
  } catch (const std::exception& e) {
    return die(std::string("fatal: ") + e.what());
  }
}

int worker_main(int in_fd, int out_fd) {
  return worker_session_main(in_fd, out_fd);
}

}  // namespace oasys::shard
