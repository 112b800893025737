#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "shard/wire.h"
#include "synth/opamp_design.h"
#include "util/fingerprint.h"
#include "util/text.h"

namespace oasys::serve {

namespace {

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() + 1 > sizeof(addr.sun_path)) {
    throw std::runtime_error(
        util::format("serve: bad socket path '%s'", path.c_str()));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(
        util::format("serve: cannot connect to '%s': %s (is the daemon "
                     "running?)",
                     path.c_str(), std::strerror(err)));
  }
  return fd;
}

}  // namespace

MixedConnectReport run_session_mixed(
    int fd, const tech::Technology& tech,
    const synth::SynthOptions& synth_opts,
    const std::vector<yield::Request>& requests) {
  // A daemon that exits mid-conversation must surface as a thrown error,
  // not SIGPIPE; scoped so a caller-installed handler survives.
  const shard::ScopedSigpipeIgnore sigpipe_guard;

  shard::WorkerConfig config;
  config.tech = tech;
  config.synth = synth_opts;
  config.tech_hash = util::fnv1a64(tech.canonical_string());
  config.opts_hash = util::fnv1a64(synth::canonical_string(synth_opts));
  // A failed write means the daemon hung up on us mid-upload — usually
  // because it refused the session and a kError frame is already waiting
  // in our receive buffer.  Stop writing, but fall through to the read
  // loop so the daemon's own explanation wins over a generic error.
  bool peer_closed = false;
  {
    shard::Writer w;
    shard::put_config(w, config);
    peer_closed =
        !shard::write_frame(fd, shard::FrameType::kConfig, w.bytes());
  }
  for (std::size_t i = 0; i < requests.size() && !peer_closed; ++i) {
    shard::Writer w;
    w.u64(i);
    shard::put_spec(w, requests[i].spec);
    if (requests[i].is_yield) shard::put_yield_params(w, requests[i].params);
    // Optional trace context: absent (no extra bytes) for untraced
    // requests, so tracing off keeps payloads byte-identical.
    shard::put_trace_context(
        w, shard::TraceContext{requests[i].trace_id, requests[i].span_id});
    peer_closed = !shard::write_frame(
        fd,
        requests[i].is_yield ? shard::FrameType::kYieldRequest
                             : shard::FrameType::kRequest,
        w.bytes());
  }
  if (!peer_closed) {
    peer_closed = !shard::write_frame(fd, shard::FrameType::kRun, {});
  }

  MixedConnectReport report;
  report.outcomes.resize(requests.size());
  std::vector<bool> have(requests.size(), false);
  bool done = false;
  bool have_metrics = false;
  shard::Frame frame;
  while (!done && shard::read_frame(fd, &frame)) {
    switch (frame.type) {
      case shard::FrameType::kError: {
        shard::Reader r(frame.payload);
        throw std::runtime_error("serve: daemon refused the request: " +
                                 r.str());
      }
      case shard::FrameType::kResult:
      case shard::FrameType::kYieldResult: {
        const bool is_yield = frame.type == shard::FrameType::kYieldResult;
        shard::Reader r(frame.payload);
        const std::uint64_t seq = r.u64();
        if (seq >= requests.size() || have[seq]) {
          throw shard::WireError(util::format(
              "serve: daemon sent an unexpected sequence id %llu",
              static_cast<unsigned long long>(seq)));
        }
        if (requests[seq].is_yield != is_yield) {
          throw shard::WireError(util::format(
              "serve: daemon answered sequence id %llu with the wrong "
              "result kind",
              static_cast<unsigned long long>(seq)));
        }
        const bool result_ok = r.boolean();
        yield::Outcome& o = report.outcomes[seq];
        o.is_yield = is_yield;
        if (!result_ok) {
          o.error = r.str();
          if (o.error.empty()) o.error = "unspecified daemon error";
        } else if (is_yield) {
          o.yield = shard::get_yield_result(r);
        } else {
          o.result = shard::get_result(r);
        }
        r.expect_end();
        have[seq] = true;
        break;
      }
      case shard::FrameType::kSpans: {
        shard::Reader r(frame.payload);
        shard::SpanSet set = shard::get_span_set(r);
        r.expect_end();
        report.worker_spans.push_back(std::move(set));
        break;
      }
      case shard::FrameType::kMetrics: {
        shard::Reader r(frame.payload);
        report.metrics = shard::get_metrics_snapshot(r);
        report.stats = shard::get_service_stats(r);
        r.expect_end();
        have_metrics = true;
        break;
      }
      case shard::FrameType::kDone: {
        shard::Reader r(frame.payload);
        r.expect_end();
        done = true;
        break;
      }
      default:
        throw shard::WireError(
            util::format("serve: daemon sent unexpected frame type %u",
                         static_cast<unsigned>(frame.type)));
    }
  }
  if (!done || !have_metrics) {
    throw std::runtime_error(
        "serve: daemon closed the connection mid-batch");
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!have[i]) {
      throw std::runtime_error(util::format(
          "serve: daemon completed the batch without answering spec %zu",
          i));
    }
  }
  return report;
}

MixedConnectReport run_connected_mixed(
    const std::string& socket_path, const tech::Technology& tech,
    const synth::SynthOptions& synth_opts,
    const std::vector<yield::Request>& requests) {
  const FdCloser sock{connect_unix(socket_path)};
  return run_session_mixed(sock.fd, tech, synth_opts, requests);
}

StatusReport fetch_status(const std::string& socket_path) {
  const shard::ScopedSigpipeIgnore sigpipe_guard;
  FdCloser sock{connect_unix(socket_path)};
  if (!shard::write_frame(sock.fd, shard::FrameType::kStatus, {})) {
    throw std::runtime_error(
        "serve: daemon closed the connection before answering kStatus");
  }
  shard::Frame frame;
  if (!shard::read_frame(sock.fd, &frame)) {
    throw std::runtime_error(
        "serve: daemon closed the connection before answering kStatus");
  }
  if (frame.type == shard::FrameType::kError) {
    shard::Reader r(frame.payload);
    throw std::runtime_error("serve: daemon refused the request: " +
                             r.str());
  }
  if (frame.type != shard::FrameType::kStatus) {
    throw std::runtime_error(
        util::format("serve: daemon answered kStatus with frame type %u",
                     static_cast<unsigned>(frame.type)));
  }
  shard::Reader r(frame.payload);
  StatusReport report = get_status_report(r);
  r.expect_end();
  return report;
}

}  // namespace oasys::serve
