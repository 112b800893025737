#include "shard/wire.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "util/text.h"

namespace oasys::shard {

namespace {

// Upper bound for decoded vector lengths: each element costs at least
// `min_item_bytes` of payload and no payload exceeds kMaxPayload, so a
// larger count is corruption — caught before any allocation sized by
// peer-controlled data.  (Division, not multiplication: a hostile count
// must not overflow the check itself.)
std::uint64_t checked_len(std::uint64_t count, std::uint64_t min_item_bytes,
                          const char* what) {
  if (count > kMaxPayload / min_item_bytes) {
    throw WireError(util::format("wire: %s count %llu is implausible", what,
                                 static_cast<unsigned long long>(count)));
  }
  return count;
}

template <typename Enum>
Enum checked_enum(std::uint8_t v, std::uint8_t max, const char* what) {
  if (v > max) {
    throw WireError(util::format("wire: %s enum value %u out of range", what,
                                 static_cast<unsigned>(v)));
  }
  return static_cast<Enum>(v);
}

}  // namespace

// ---- Writer / Reader --------------------------------------------------------

void Writer::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view v) {
  u64(v.size());
  buf_.append(v.data(), v.size());
}

void Reader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw WireError(util::format(
        "wire: payload truncated (need %zu bytes at offset %zu of %zu)", n,
        pos_, bytes_.size()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint64_t n = u64();
  need(static_cast<std::size_t>(n));
  std::string s(bytes_.substr(pos_, static_cast<std::size_t>(n)));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void Reader::expect_end() const {
  if (!at_end()) {
    throw WireError(util::format(
        "wire: %zu trailing bytes after payload", bytes_.size() - pos_));
  }
}

// ---- struct serialization ---------------------------------------------------

void put_config(Writer& w, const WorkerConfig& c) {
  w.u32(c.version);
  w.u64(c.shard);
  put_technology(w, c.tech);
  put_synth_options(w, c.synth);
  put_service_options(w, c.service);
  w.u64(c.tech_hash);
  w.u64(c.opts_hash);
}

WorkerConfig get_config(Reader& r) {
  WorkerConfig c;
  c.version = r.u32();
  if (c.version != kWireVersion) {
    throw WireError(util::format("wire: protocol version %u, expected %u",
                                 c.version, kWireVersion));
  }
  c.shard = r.u64();
  c.tech = get_technology(r);
  c.synth = get_synth_options(r);
  c.service = get_service_options(r);
  c.tech_hash = r.u64();
  c.opts_hash = r.u64();
  return c;
}

void put_spec(Writer& w, const core::OpAmpSpec& s) {
  w.str(s.name);
  w.f64(s.gain_min_db);
  w.f64(s.gbw_min);
  w.f64(s.pm_min_deg);
  w.f64(s.slew_min);
  w.f64(s.cload);
  w.f64(s.swing_pos);
  w.f64(s.swing_neg);
  w.f64(s.offset_max);
  w.f64(s.icmr_lo);
  w.f64(s.icmr_hi);
  w.f64(s.power_max);
  w.f64(s.area_max);
  w.f64(s.cmrr_min_db);
  w.f64(s.psrr_min_db);
  w.f64(s.noise_max);
}

core::OpAmpSpec get_spec(Reader& r) {
  core::OpAmpSpec s;
  s.name = r.str();
  s.gain_min_db = r.f64();
  s.gbw_min = r.f64();
  s.pm_min_deg = r.f64();
  s.slew_min = r.f64();
  s.cload = r.f64();
  s.swing_pos = r.f64();
  s.swing_neg = r.f64();
  s.offset_max = r.f64();
  s.icmr_lo = r.f64();
  s.icmr_hi = r.f64();
  s.power_max = r.f64();
  s.area_max = r.f64();
  s.cmrr_min_db = r.f64();
  s.psrr_min_db = r.f64();
  s.noise_max = r.f64();
  return s;
}

namespace {

void put_mos(Writer& w, const tech::MosParams& p) {
  w.f64(p.vt0);
  w.f64(p.kp);
  w.f64(p.gamma);
  w.f64(p.phi);
  w.f64(p.lambda_l);
  w.f64(p.cgdo);
  w.f64(p.cgso);
  w.f64(p.cj);
  w.f64(p.cjsw);
  w.f64(p.pb);
  w.f64(p.mj);
  w.f64(p.mjsw);
  w.f64(p.mobility);
  w.f64(p.kf);
  w.f64(p.af);
  w.f64(p.avt);
}

tech::MosParams get_mos(Reader& r) {
  tech::MosParams p;
  p.vt0 = r.f64();
  p.kp = r.f64();
  p.gamma = r.f64();
  p.phi = r.f64();
  p.lambda_l = r.f64();
  p.cgdo = r.f64();
  p.cgso = r.f64();
  p.cj = r.f64();
  p.cjsw = r.f64();
  p.pb = r.f64();
  p.mj = r.f64();
  p.mjsw = r.f64();
  p.mobility = r.f64();
  p.kf = r.f64();
  p.af = r.f64();
  p.avt = r.f64();
  return p;
}

}  // namespace

void put_technology(Writer& w, const tech::Technology& t) {
  w.str(t.name);
  w.f64(t.vdd);
  w.f64(t.vss);
  w.f64(t.lmin);
  w.f64(t.wmin);
  w.f64(t.drain_ext);
  w.f64(t.tox);
  w.f64(t.cox);
  put_mos(w, t.nmos);
  put_mos(w, t.pmos);
}

tech::Technology get_technology(Reader& r) {
  tech::Technology t;
  t.name = r.str();
  t.vdd = r.f64();
  t.vss = r.f64();
  t.lmin = r.f64();
  t.wmin = r.f64();
  t.drain_ext = r.f64();
  t.tox = r.f64();
  t.cox = r.f64();
  t.nmos = get_mos(r);
  t.pmos = get_mos(r);
  return t;
}

void put_synth_options(Writer& w, const synth::SynthOptions& o) {
  w.boolean(o.rules_enabled);
  w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(o.max_patches)));
  w.u8(static_cast<std::uint8_t>(o.bias_style));
  w.f64(o.iref);
  w.f64(o.pm_grace_deg);
  w.u64(o.jobs);
  w.u8(static_cast<std::uint8_t>(o.tran_mode));
  w.f64(o.tran_rtol);
  w.f64(o.tran_atol);
}

synth::SynthOptions get_synth_options(Reader& r) {
  synth::SynthOptions o;
  o.rules_enabled = r.boolean();
  o.max_patches = static_cast<int>(static_cast<std::int64_t>(r.u64()));
  o.bias_style =
      checked_enum<blocks::BiasStyle>(r.u8(), 1, "SynthOptions.bias_style");
  o.iref = r.f64();
  o.pm_grace_deg = r.f64();
  o.jobs = static_cast<std::size_t>(r.u64());
  o.tran_mode =
      checked_enum<sim::TranMode>(r.u8(), 2, "SynthOptions.tran_mode");
  o.tran_rtol = r.f64();
  o.tran_atol = r.f64();
  return o;
}

void put_service_options(Writer& w, const service::ServiceOptions& o) {
  w.boolean(o.cache_enabled);
  w.u64(o.cache_capacity);
  w.u64(o.queue_capacity);
}

service::ServiceOptions get_service_options(Reader& r) {
  service::ServiceOptions o;
  o.cache_enabled = r.boolean();
  o.cache_capacity = static_cast<std::size_t>(r.u64());
  o.queue_capacity = static_cast<std::size_t>(r.u64());
  return o;
}

namespace {

void put_diag_log(Writer& w, const util::DiagnosticLog& log) {
  w.u64(log.size());
  for (const util::Diagnostic& d : log.entries()) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.str(d.code);
    w.str(d.message);
  }
}

util::DiagnosticLog get_diag_log(Reader& r) {
  util::DiagnosticLog log;
  const std::uint64_t n = checked_len(r.u64(), 17, "diagnostic");
  for (std::uint64_t i = 0; i < n; ++i) {
    util::Diagnostic d;
    d.severity =
        checked_enum<util::Severity>(r.u8(), 2, "Diagnostic.severity");
    d.code = r.str();
    d.message = r.str();
    log.add(std::move(d));
  }
  return log;
}

void put_trace(Writer& w, const core::ExecutionTrace& t) {
  w.boolean(t.success);
  w.str(t.abort_reason);
  w.u64(static_cast<std::uint64_t>(t.steps_executed));
  w.u64(static_cast<std::uint64_t>(t.rules_fired));
  w.u64(t.events.size());
  for (const core::TraceEvent& e : t.events) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u64(e.step_index);
    w.str(e.step_name);
    w.str(e.code);
    w.str(e.detail);
  }
}

core::ExecutionTrace get_trace(Reader& r) {
  core::ExecutionTrace t;
  t.success = r.boolean();
  t.abort_reason = r.str();
  t.steps_executed = static_cast<int>(r.u64());
  t.rules_fired = static_cast<int>(r.u64());
  const std::uint64_t n = checked_len(r.u64(), 33, "trace event");
  t.events.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    core::TraceEvent e{};
    e.kind =
        checked_enum<core::TraceEvent::Kind>(r.u8(), 4, "TraceEvent.kind");
    e.step_index = static_cast<std::size_t>(r.u64());
    e.step_name = r.str();
    e.code = r.str();
    e.detail = r.str();
    t.events.push_back(std::move(e));
  }
  return t;
}

void put_performance(Writer& w, const core::OpAmpPerformance& p) {
  w.f64(p.gain_db);
  w.f64(p.gbw);
  w.f64(p.pm_deg);
  w.f64(p.slew);
  w.f64(p.swing_pos);
  w.f64(p.swing_neg);
  w.f64(p.offset);
  w.f64(p.icmr_lo);
  w.f64(p.icmr_hi);
  w.f64(p.power);
  w.f64(p.area);
  w.f64(p.cmrr_db);
  w.f64(p.psrr_db);
  w.f64(p.noise_in);
}

core::OpAmpPerformance get_performance(Reader& r) {
  core::OpAmpPerformance p;
  p.gain_db = r.f64();
  p.gbw = r.f64();
  p.pm_deg = r.f64();
  p.slew = r.f64();
  p.swing_pos = r.f64();
  p.swing_neg = r.f64();
  p.offset = r.f64();
  p.icmr_lo = r.f64();
  p.icmr_hi = r.f64();
  p.power = r.f64();
  p.area = r.f64();
  p.cmrr_db = r.f64();
  p.psrr_db = r.f64();
  p.noise_in = r.f64();
  return p;
}

void put_optional_f64(Writer& w, const std::optional<double>& v) {
  w.boolean(v.has_value());
  if (v) w.f64(*v);
}

std::optional<double> get_optional_f64(Reader& r) {
  if (!r.boolean()) return std::nullopt;
  return r.f64();
}

void put_design(Writer& w, const synth::OpAmpDesign& d) {
  put_spec(w, d.spec);
  w.u8(static_cast<std::uint8_t>(d.style));
  w.boolean(d.feasible);
  w.u64(static_cast<std::uint64_t>(d.soft_violations));
  w.boolean(d.stage1_cascode);
  w.boolean(d.stage2_cascode_load);
  w.boolean(d.stage2_cascode_gm);
  w.boolean(d.tail_cascode);
  w.boolean(d.has_level_shifter);
  w.u64(d.devices.size());
  for (const blocks::SizedDevice& dev : d.devices) {
    w.str(dev.role);
    w.u8(static_cast<std::uint8_t>(dev.type));
    w.f64(dev.w);
    w.f64(dev.l);
    w.u64(static_cast<std::uint64_t>(dev.m));
    w.f64(dev.id);
    w.f64(dev.vov);
  }
  w.f64(d.cc);
  w.f64(d.rref);
  w.boolean(d.ideal_bias_reference);
  w.u8(static_cast<std::uint8_t>(d.bias_style));
  w.f64(d.iref);
  w.f64(d.itail);
  w.f64(d.i2);
  w.f64(d.ils);
  put_optional_f64(w, d.vb_cascode_n);
  put_optional_f64(w, d.vb_cascode_p);
  put_performance(w, d.predicted);
  put_diag_log(w, d.log);
  put_trace(w, d.trace);
}

synth::OpAmpDesign get_design(Reader& r) {
  synth::OpAmpDesign d;
  d.spec = get_spec(r);
  d.style =
      checked_enum<synth::OpAmpStyle>(r.u8(), 2, "OpAmpDesign.style");
  d.feasible = r.boolean();
  d.soft_violations = static_cast<int>(r.u64());
  d.stage1_cascode = r.boolean();
  d.stage2_cascode_load = r.boolean();
  d.stage2_cascode_gm = r.boolean();
  d.tail_cascode = r.boolean();
  d.has_level_shifter = r.boolean();
  const std::uint64_t ndev = checked_len(r.u64(), 50, "device");
  d.devices.reserve(static_cast<std::size_t>(ndev));
  for (std::uint64_t i = 0; i < ndev; ++i) {
    blocks::SizedDevice dev;
    dev.role = r.str();
    dev.type = checked_enum<mos::MosType>(r.u8(), 1, "SizedDevice.type");
    dev.w = r.f64();
    dev.l = r.f64();
    dev.m = static_cast<int>(r.u64());
    dev.id = r.f64();
    dev.vov = r.f64();
    d.devices.push_back(std::move(dev));
  }
  d.cc = r.f64();
  d.rref = r.f64();
  d.ideal_bias_reference = r.boolean();
  d.bias_style =
      checked_enum<blocks::BiasStyle>(r.u8(), 1, "OpAmpDesign.bias_style");
  d.iref = r.f64();
  d.itail = r.f64();
  d.i2 = r.f64();
  d.ils = r.f64();
  d.vb_cascode_n = get_optional_f64(r);
  d.vb_cascode_p = get_optional_f64(r);
  d.predicted = get_performance(r);
  d.log = get_diag_log(r);
  d.trace = get_trace(r);
  return d;
}

}  // namespace

void put_result(Writer& w, const synth::SynthesisResult& result) {
  put_spec(w, result.spec);
  w.u64(result.candidates.size());
  for (const synth::OpAmpDesign& d : result.candidates) put_design(w, d);
  w.boolean(result.selection.best.has_value());
  w.u64(result.selection.best.value_or(0));
  w.u64(result.selection.ranking.size());
  for (const std::size_t idx : result.selection.ranking) w.u64(idx);
  w.str(result.selection.summary);
}

synth::SynthesisResult get_result(Reader& r) {
  synth::SynthesisResult result;
  result.spec = get_spec(r);
  const std::uint64_t nc = checked_len(r.u64(), 200, "candidate");
  result.candidates.reserve(static_cast<std::size_t>(nc));
  for (std::uint64_t i = 0; i < nc; ++i) {
    result.candidates.push_back(get_design(r));
  }
  const bool has_best = r.boolean();
  const std::uint64_t best = r.u64();
  if (has_best) {
    if (best >= result.candidates.size()) {
      throw WireError("wire: selection.best out of range");
    }
    result.selection.best = static_cast<std::size_t>(best);
  }
  const std::uint64_t nrank = checked_len(r.u64(), 8, "ranking entry");
  result.selection.ranking.reserve(static_cast<std::size_t>(nrank));
  for (std::uint64_t i = 0; i < nrank; ++i) {
    const std::uint64_t idx = r.u64();
    if (idx >= result.candidates.size()) {
      throw WireError("wire: selection.ranking index out of range");
    }
    result.selection.ranking.push_back(static_cast<std::size_t>(idx));
  }
  result.selection.summary = r.str();
  return result;
}

void put_yield_params(Writer& w, const yield::YieldParams& p) {
  w.u64(static_cast<std::uint64_t>(p.samples));
  w.u64(p.seed);
}

yield::YieldParams get_yield_params(Reader& r) {
  yield::YieldParams p;
  const std::uint64_t samples = r.u64();
  // Sample counts are caller-chosen but bounded: anything above 2^31-1
  // cannot have come from the CLI's int parse and is corruption.
  if (samples == 0 || samples > 0x7fffffffull) {
    throw WireError("wire: YieldParams.samples out of range");
  }
  p.samples = static_cast<int>(samples);
  p.seed = r.u64();
  return p;
}

void put_yield_result(Writer& w, const yield::YieldResult& result) {
  w.boolean(result.ok);
  w.str(result.error);
  put_result(w, result.synthesis);
  w.u64(static_cast<std::uint64_t>(result.samples_requested));
  w.u64(static_cast<std::uint64_t>(result.samples_converged));
  w.u64(result.seed);
  w.u64(result.pass_count);
  w.f64(result.yield);
  w.u64(result.metrics.size());
  for (const yield::MetricStats& m : result.metrics) {
    w.str(m.name);
    w.boolean(m.constrained);
    w.f64(m.bound);
    w.u64(m.pass);
    w.f64(m.mean);
    w.f64(m.sigma);
    w.f64(m.min);
    w.f64(m.max);
    w.f64(m.p05);
    w.f64(m.p50);
    w.f64(m.p95);
  }
}

yield::YieldResult get_yield_result(Reader& r) {
  yield::YieldResult result;
  result.ok = r.boolean();
  result.error = r.str();
  result.synthesis = get_result(r);
  result.samples_requested = static_cast<int>(r.u64());
  result.samples_converged = static_cast<int>(r.u64());
  result.seed = r.u64();
  result.pass_count = r.u64();
  result.yield = r.f64();
  const std::uint64_t nm = checked_len(r.u64(), 75, "yield metric");
  result.metrics.reserve(static_cast<std::size_t>(nm));
  for (std::uint64_t i = 0; i < nm; ++i) {
    yield::MetricStats m;
    m.name = r.str();
    m.constrained = r.boolean();
    m.bound = r.f64();
    m.pass = r.u64();
    m.mean = r.f64();
    m.sigma = r.f64();
    m.min = r.f64();
    m.max = r.f64();
    m.p05 = r.f64();
    m.p50 = r.f64();
    m.p95 = r.f64();
    result.metrics.push_back(std::move(m));
  }
  return result;
}

void put_trace_context(Writer& w, const TraceContext& ctx) {
  if (!ctx.present()) return;  // absent block = untraced request
  w.u8(kTraceContextVersion);
  w.u64(ctx.trace_id);
  w.u64(ctx.span_id);
}

TraceContext get_trace_context(Reader& r) {
  TraceContext ctx;
  if (r.at_end()) return ctx;  // old coordinator or tracing off
  const std::uint8_t version = r.u8();
  if (version != kTraceContextVersion) {
    throw WireError(util::format(
        "wire: unsupported trace-context version %u",
        static_cast<unsigned>(version)));
  }
  ctx.trace_id = r.u64();
  ctx.span_id = r.u64();
  if (ctx.trace_id == 0) {
    throw WireError("wire: trace context with zero trace id");
  }
  return ctx;
}

void put_span_set(Writer& w, const SpanSet& s) {
  w.u64(s.trace_id);
  w.u64(s.shard);
  w.u64(s.events.size());
  for (const obs::TraceEvent& e : s.events) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u64(static_cast<std::uint64_t>(e.depth));
    w.str(e.name);
    w.str(e.scope);
    w.str(e.code);
    w.str(e.detail);
    w.u64(e.index);
    w.f64(e.seconds);
    w.u64(e.ts_us);
    w.u64(e.tid);
    w.u64(e.trace_id);
    w.u64(e.span_id);
  }
}

SpanSet get_span_set(Reader& r) {
  SpanSet s;
  s.trace_id = r.u64();
  s.shard = r.u64();
  const std::uint64_t n = checked_len(r.u64(), 65, "trace span event");
  s.events.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::TraceEvent e;
    e.kind =
        checked_enum<obs::TraceEvent::Kind>(r.u8(), 2, "TraceEvent.kind");
    e.depth = static_cast<int>(r.u64());
    e.name = r.str();
    e.scope = r.str();
    e.code = r.str();
    e.detail = r.str();
    e.index = r.u64();
    e.seconds = r.f64();
    e.ts_us = r.u64();
    e.tid = r.u64();
    e.trace_id = r.u64();
    e.span_id = r.u64();
    s.events.push_back(std::move(e));
  }
  return s;
}

void put_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& s) {
  w.u64(s.entries.size());
  for (const obs::MetricEntry& e : s.entries) {
    w.str(e.name);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.boolean(e.deterministic);
    switch (e.kind) {
      case obs::MetricKind::kCounter:
        w.u64(e.counter);
        break;
      case obs::MetricKind::kGauge:
        w.u8(static_cast<std::uint8_t>(e.gauge_merge));
        w.f64(e.gauge);
        break;
      case obs::MetricKind::kHistogram: {
        w.u64(e.histogram.bounds.size());
        for (const double b : e.histogram.bounds) w.f64(b);
        w.u64(e.histogram.counts.size());
        for (const std::uint64_t c : e.histogram.counts) w.u64(c);
        w.u64(e.histogram.count);
        w.f64(e.histogram.sum);
        w.f64(e.histogram.min);
        w.f64(e.histogram.max);
        break;
      }
    }
  }
}

obs::MetricsSnapshot get_metrics_snapshot(Reader& r) {
  obs::MetricsSnapshot s;
  const std::uint64_t n = checked_len(r.u64(), 10, "metric entry");
  s.entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::MetricEntry e;
    e.name = r.str();
    e.kind = checked_enum<obs::MetricKind>(r.u8(), 2, "MetricEntry.kind");
    e.deterministic = r.boolean();
    switch (e.kind) {
      case obs::MetricKind::kCounter:
        e.counter = r.u64();
        break;
      case obs::MetricKind::kGauge:
        e.gauge_merge = checked_enum<obs::GaugeMerge>(
            r.u8(), 1, "MetricEntry.gauge_merge");
        e.gauge = r.f64();
        break;
      case obs::MetricKind::kHistogram: {
        const std::uint64_t nb = checked_len(r.u64(), 8, "bucket bound");
        e.histogram.bounds.reserve(static_cast<std::size_t>(nb));
        for (std::uint64_t b = 0; b < nb; ++b) {
          e.histogram.bounds.push_back(r.f64());
        }
        const std::uint64_t ncnt = checked_len(r.u64(), 8, "bucket count");
        if (ncnt != nb + 1) {
          throw WireError("wire: histogram bucket/bound count mismatch");
        }
        e.histogram.counts.reserve(static_cast<std::size_t>(ncnt));
        for (std::uint64_t c = 0; c < ncnt; ++c) {
          e.histogram.counts.push_back(r.u64());
        }
        e.histogram.count = r.u64();
        e.histogram.sum = r.f64();
        e.histogram.min = r.f64();
        e.histogram.max = r.f64();
        break;
      }
    }
    s.entries.push_back(std::move(e));
  }
  return s;
}

void put_service_stats(Writer& w, const service::ServiceStats& s) {
  w.u64(s.requests);
  w.u64(s.hits);
  w.u64(s.misses);
  w.u64(s.dedup_joins);
  w.u64(s.evictions);
  w.u64(s.queue_depth);
  w.u64(s.queue_high_water);
  w.u64(s.cache_size);
  w.u64(s.latency.count);
  w.f64(s.latency.min_s);
  w.f64(s.latency.mean_s);
  w.f64(s.latency.max_s);
  w.f64(s.latency.p50_s);
  w.f64(s.latency.p95_s);
}

service::ServiceStats get_service_stats(Reader& r) {
  service::ServiceStats s;
  s.requests = r.u64();
  s.hits = r.u64();
  s.misses = r.u64();
  s.dedup_joins = r.u64();
  s.evictions = r.u64();
  s.queue_depth = static_cast<std::size_t>(r.u64());
  s.queue_high_water = static_cast<std::size_t>(r.u64());
  s.cache_size = static_cast<std::size_t>(r.u64());
  s.latency.count = r.u64();
  s.latency.min_s = r.f64();
  s.latency.mean_s = r.f64();
  s.latency.max_s = r.f64();
  s.latency.p50_s = r.f64();
  s.latency.p95_s = r.f64();
  return s;
}

// ---- frame I/O --------------------------------------------------------------

namespace {

// Writes all of `data`; false on a gone peer (EPIPE with SIGPIPE ignored).
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::write(fd, data, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

// 0 = clean EOF before any byte, 1 = read exactly n bytes; throws on a
// truncation after the first byte.
int read_exact(int fd, char* data, std::size_t n, const char* what) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::read(fd, data + got, n - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WireError(util::format("wire: read error in %s: %s", what,
                                   std::strerror(errno)));
    }
    if (k == 0) {
      if (got == 0) return 0;
      throw WireError(util::format(
          "wire: stream truncated in %s (%zu of %zu bytes)", what, got, n));
    }
    got += static_cast<std::size_t>(k);
  }
  return 1;
}

// Validates the 16 header bytes shared by every reader path.
void parse_frame_header(std::string_view header, FrameType* type,
                        std::uint64_t* len) {
  Reader r(header);
  const std::uint32_t magic = r.u32();
  if (magic != kWireMagic) {
    throw WireError(util::format("wire: bad frame magic 0x%08x", magic));
  }
  const std::uint32_t t = r.u32();
  if (t < static_cast<std::uint32_t>(FrameType::kConfig) ||
      t > static_cast<std::uint32_t>(FrameType::kStatus)) {
    throw WireError(util::format("wire: unknown frame type %u", t));
  }
  const std::uint64_t n = r.u64();
  if (n > kMaxPayload) {
    throw WireError(util::format("wire: frame length %llu exceeds cap",
                                 static_cast<unsigned long long>(n)));
  }
  *type = static_cast<FrameType>(t);
  *len = n;
}

}  // namespace

bool write_frame(int fd, FrameType type, std::string_view payload) {
  const std::string buf = frame_bytes(type, payload);
  return write_all(fd, buf.data(), buf.size());
}

std::string frame_bytes(FrameType type, std::string_view payload) {
  Writer header;
  header.u32(kWireMagic);
  header.u32(static_cast<std::uint32_t>(type));
  header.u64(payload.size());
  std::string buf = header.take();
  buf.append(payload.data(), payload.size());
  return buf;
}

bool read_frame(int fd, Frame* out) {
  char header[16];
  if (read_exact(fd, header, sizeof(header), "frame header") == 0) {
    return false;  // clean EOF at a frame boundary
  }
  FrameType type;
  std::uint64_t len = 0;
  parse_frame_header(std::string_view(header, sizeof(header)), &type, &len);
  out->type = type;
  out->payload.resize(static_cast<std::size_t>(len));
  if (len > 0 &&
      read_exact(fd, out->payload.data(), out->payload.size(),
                 "frame payload") == 0) {
    throw WireError("wire: stream truncated before frame payload");
  }
  return true;
}

bool FrameDecoder::next(Frame* out) {
  constexpr std::size_t kHeader = 16;
  if (buf_.size() < kHeader) return false;
  FrameType type;
  std::uint64_t len = 0;
  parse_frame_header(std::string_view(buf_.data(), kHeader), &type, &len);
  if (buf_.size() - kHeader < len) return false;
  out->type = type;
  out->payload.assign(buf_, kHeader, static_cast<std::size_t>(len));
  buf_.erase(0, kHeader + static_cast<std::size_t>(len));
  return true;
}

}  // namespace oasys::shard
