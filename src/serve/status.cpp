#include "serve/status.h"

#include <sstream>

#include "util/table.h"
#include "util/text.h"

namespace oasys::serve {

namespace {

using util::format;

std::string num(double v) { return format("%.17g", v); }

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

const char* worker_state(const WorkerStatus& w) {
  if (w.retired) return "retired";
  if (w.alive) return "up";
  return "down";
}

}  // namespace

double StatusReport::shared_cache_hit_ratio() const {
  const std::uint64_t total = shared_cache_hits + shared_cache_misses;
  if (total == 0) return 0.0;
  return static_cast<double>(shared_cache_hits) /
         static_cast<double>(total);
}

void put_status_report(shard::Writer& w, const StatusReport& s) {
  w.f64(s.uptime_s);
  w.boolean(s.draining);
  w.u64(s.sessions_total);
  w.u64(s.sessions_active);
  w.u64(s.requests_total);
  w.u64(s.batches);
  w.u64(s.in_flight);
  w.u64(s.shared_cache_size);
  w.u64(s.shared_cache_capacity);
  w.u64(s.shared_cache_hits);
  w.u64(s.shared_cache_misses);
  w.u64(s.respawns);
  w.u64(s.worker_timeouts);
  w.u64(s.worker_errors);
  w.u64(s.lu_analyses);
  w.u64(s.lu_refactors);
  w.u64(s.lu_replans);
  w.u64(s.workers.size());
  for (const WorkerStatus& wk : s.workers) {
    w.u64(wk.shard);
    w.u64(static_cast<std::uint64_t>(wk.pid));
    w.boolean(wk.alive);
    w.boolean(wk.retired);
    w.u64(wk.in_flight_cycles);
    w.u64(wk.requests_served);
    w.u64(wk.respawns);
    w.f64(wk.backoff_s);
  }
}

StatusReport get_status_report(shard::Reader& r) {
  StatusReport s;
  s.uptime_s = r.f64();
  s.draining = r.boolean();
  s.sessions_total = r.u64();
  s.sessions_active = r.u64();
  s.requests_total = r.u64();
  s.batches = r.u64();
  s.in_flight = r.u64();
  s.shared_cache_size = r.u64();
  s.shared_cache_capacity = r.u64();
  s.shared_cache_hits = r.u64();
  s.shared_cache_misses = r.u64();
  s.respawns = r.u64();
  s.worker_timeouts = r.u64();
  s.worker_errors = r.u64();
  s.lu_analyses = r.u64();
  s.lu_refactors = r.u64();
  s.lu_replans = r.u64();
  const std::uint64_t n = r.u64();
  if (n > 1u << 20) {
    throw shard::WireError(util::format(
        "wire: worker status count %llu is implausible",
        static_cast<unsigned long long>(n)));
  }
  s.workers.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    WorkerStatus wk;
    wk.shard = r.u64();
    wk.pid = static_cast<std::int64_t>(r.u64());
    wk.alive = r.boolean();
    wk.retired = r.boolean();
    wk.in_flight_cycles = r.u64();
    wk.requests_served = r.u64();
    wk.respawns = r.u64();
    wk.backoff_s = r.f64();
    s.workers.push_back(wk);
  }
  return s;
}

std::string status_json(const StatusReport& s) {
  std::ostringstream os;
  os << "{\"schema\": \"oasys.status.v1\", \"uptime_s\": "
     << num(s.uptime_s)
     << ", \"draining\": " << (s.draining ? "true" : "false")
     << ", \"sessions\": {\"total\": " << s.sessions_total
     << ", \"active\": " << s.sessions_active << "}"
     << ", \"requests\": {\"total\": " << s.requests_total
     << ", \"batches\": " << s.batches << ", \"in_flight\": " << s.in_flight
     << "}"
     << ", \"shared_cache\": {\"size\": " << s.shared_cache_size
     << ", \"capacity\": " << s.shared_cache_capacity
     << ", \"hits\": " << s.shared_cache_hits
     << ", \"misses\": " << s.shared_cache_misses
     << ", \"hit_ratio\": " << num(s.shared_cache_hit_ratio()) << "}"
     << ", \"fleet\": {\"respawns\": " << s.respawns
     << ", \"worker_timeouts\": " << s.worker_timeouts
     << ", \"worker_errors\": " << s.worker_errors << "}"
     << ", \"newton_lu\": {\"analyses\": " << s.lu_analyses
     << ", \"refactors\": " << s.lu_refactors
     << ", \"replans\": " << s.lu_replans << "}"
     << ", \"workers\": [";
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const WorkerStatus& wk = s.workers[i];
    if (i > 0) os << ", ";
    os << "{\"shard\": " << wk.shard << ", \"pid\": " << wk.pid
       << ", \"state\": " << quote(worker_state(wk))
       << ", \"in_flight_cycles\": " << wk.in_flight_cycles
       << ", \"requests_served\": " << wk.requests_served
       << ", \"respawns\": " << wk.respawns
       << ", \"backoff_s\": " << num(wk.backoff_s) << "}";
  }
  os << "]}";
  return os.str();
}

std::string status_table(const StatusReport& s) {
  std::ostringstream os;
  os << format("uptime %.1f s · %llu session(s) active (%llu total) · ",
               s.uptime_s,
               static_cast<unsigned long long>(s.sessions_active),
               static_cast<unsigned long long>(s.sessions_total))
     << format("%llu request(s), %llu batch(es), %llu in flight\n",
               static_cast<unsigned long long>(s.requests_total),
               static_cast<unsigned long long>(s.batches),
               static_cast<unsigned long long>(s.in_flight));
  os << format(
      "shared cache %llu/%llu entries · %llu hit(s), %llu miss(es) "
      "(%.1f%% hit ratio)\n",
      static_cast<unsigned long long>(s.shared_cache_size),
      static_cast<unsigned long long>(s.shared_cache_capacity),
      static_cast<unsigned long long>(s.shared_cache_hits),
      static_cast<unsigned long long>(s.shared_cache_misses),
      s.shared_cache_hit_ratio() * 100.0);
  os << format("fleet: %llu respawn(s), %llu timeout(s), %llu worker "
               "error(s)%s\n",
               static_cast<unsigned long long>(s.respawns),
               static_cast<unsigned long long>(s.worker_timeouts),
               static_cast<unsigned long long>(s.worker_errors),
               s.draining ? " · draining" : "");
  os << format("newton lu: %llu plan(s), %llu refactor(s), %llu "
               "re-plan(s)\n",
               static_cast<unsigned long long>(s.lu_analyses),
               static_cast<unsigned long long>(s.lu_refactors),
               static_cast<unsigned long long>(s.lu_replans));
  util::Table table({"worker", "pid", "state", "cycles", "served",
                     "respawns", "backoff"});
  for (std::size_t c = 1; c <= 6; ++c) {
    table.set_align(c, util::Align::kRight);
  }
  for (const WorkerStatus& wk : s.workers) {
    table.add_row(
        {format("%llu", static_cast<unsigned long long>(wk.shard)),
         wk.pid >= 0 ? format("%lld", static_cast<long long>(wk.pid)) : "-",
         worker_state(wk),
         format("%llu", static_cast<unsigned long long>(wk.in_flight_cycles)),
         format("%llu", static_cast<unsigned long long>(wk.requests_served)),
         format("%llu", static_cast<unsigned long long>(wk.respawns)),
         format("%.2fs", wk.backoff_s)});
  }
  os << table.to_string();
  return os.str();
}

}  // namespace oasys::serve
