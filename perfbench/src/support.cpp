// Clocks, process accounting, statistics, spans, inputs and reference
// comparison for the benchmark binary (see bench.h).
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/spec_parser.h"
#include "obs/export.h"
#include "synth/result_json.h"
#include "tech/tech_parser.h"
#include "tolcmp.h"
#include "util/text.h"

extern char** environ;

namespace perfbench {

// ---- clocks and process accounting --------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t now_us() { return obs::monotonic_now_us(); }

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

rusage usage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return ru;
}

// Fields of /proc/<pid>/stat after the parenthesized command name.
std::vector<std::string> proc_stat_fields(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  std::vector<std::string> out;
  if (close == std::string::npos) return out;
  std::istringstream rest(text.substr(close + 1));
  std::string f;
  while (rest >> f) out.push_back(f);
  return out;
}

}  // namespace

double self_cpu_s() {
  const rusage ru = usage(RUSAGE_SELF);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double children_cpu_s() {
  const rusage ru = usage(RUSAGE_CHILDREN);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double self_peak_rss_mb() {
  // VmHWM rather than ru_maxrss: the latter survives exec and would report
  // the launching wrapper's peak.
  return proc_peak_rss_mb(static_cast<long>(::getpid()));
}

double children_peak_rss_mb() {
  return static_cast<double>(usage(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
}

double proc_cpu_s(long pid) {
  // After ")": state(0) ... utime(11) stime(12), in clock ticks.
  const std::vector<std::string> f = proc_stat_fields(pid);
  if (f.size() < 13) return 0.0;
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (std::stod(f[11]) + std::stod(f[12])) / ticks;
}

double proc_peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- host speed ------------------------------------------------------------

namespace {

// Dense LU with partial pivoting and a forward/back solve on a fixed 24x24
// matrix, plus the exp/sqrt mix of a device model: the shape of the
// simulator's inner loops, in code of the benchmark's own, so that a
// change to the program under test cannot move it.  Returns microseconds.
double probe_kernel_us() {
  constexpr int kN = 24;
  constexpr int kReps = 12;
  static volatile double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  double acc = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    double a[kN][kN];
    double b[kN];
    std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
        a[i][j] = std::exp(u - 0.5) * std::sqrt(u + 1.0) + (i == j ? kN : 0.0);
      }
      b[i] = 1.0 + i;
    }
    for (int k = 0; k < kN; ++k) {
      int p = k;
      for (int i = k + 1; i < kN; ++i) {
        if (std::fabs(a[i][k]) > std::fabs(a[p][k])) p = i;
      }
      if (p != k) {
        for (int j = 0; j < kN; ++j) std::swap(a[k][j], a[p][j]);
        std::swap(b[k], b[p]);
      }
      for (int i = k + 1; i < kN; ++i) {
        const double f = a[i][k] / a[k][k];
        for (int j = k; j < kN; ++j) a[i][j] -= f * a[k][j];
        b[i] -= f * b[k];
      }
    }
    for (int i = kN - 1; i >= 0; --i) {
      double s = b[i];
      for (int j = i + 1; j < kN; ++j) s -= a[i][j] * b[j];
      b[i] = s / a[i][i];
    }
    acc += b[0] + b[kN - 1];
  }
  sink = sink + acc;
  return 1e6 * seconds_since(t0);
}

double host_probe_us() {
  // The fastest of three, so that an interrupt inside one does not count.
  return std::min({probe_kernel_us(), probe_kernel_us(), probe_kernel_us()});
}

}  // namespace

HostProbe::HostProbe() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  if (cpus_.empty()) cpus_.push_back(-1);
  us_.assign(cpus_.size(), 0.0);
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    threads_.emplace_back([this, i] { loop(i); });
  }
}

HostProbe::~HostProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void HostProbe::loop(std::size_t slot) {
  if (cpus_[slot] >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot], &one);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
  }
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    start_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lock.unlock();
    const double us = host_probe_us();
    lock.lock();
    us_[slot] = us;
    if (++finished_ == cpus_.size()) done_.notify_one();
  }
}

double HostProbe::run() {
  std::unique_lock<std::mutex> lock(mu_);
  finished_ = 0;
  ++generation_;
  start_.notify_all();
  done_.wait(lock, [&] { return finished_ == cpus_.size(); });
  double sum = 0.0;
  for (const double us : us_) sum += us;
  return sum / static_cast<double>(us_.size());
}

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- spans ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t), t0_(Clock::now()) {
  if (!t_.enabled) return;
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = t_.open_.empty() ? -1 : t_.open_.back();
  s.request = t_.request;
  index_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(std::move(s));
  t_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  t_.spans_[static_cast<std::size_t>(index_)].end_us = now_us();
  t_.open_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += 1e-6 * static_cast<double>(s.end_us - s.start_us);
  }
  return total;
}

std::string Tracer::self_time_table() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_us - s.start_us);
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  double all_self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_us - spans_[i].start_us);
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total_us += dur;
    r.self_us += std::max(0.0, dur - child_us[i]);
    all_self += std::max(0.0, dur - child_us[i]);
  }
  std::string out = util::format("%-34s %8s %12s %12s %7s\n", "span", "count",
                                 "total_ms", "self_ms", "self%");
  for (const auto& [name, r] : rows) {
    out += util::format("%-34s %8llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                        static_cast<unsigned long long>(r.count),
                        r.total_us / 1e3, r.self_us / 1e3,
                        all_self > 0.0 ? 100.0 * r.self_us / all_self : 0.0);
  }
  return out;
}

std::string Tracer::chrome_json(const std::string& lane) const {
  obs::TraceProcess proc;
  proc.pid = 1;
  proc.name = lane;
  proc.events.reserve(spans_.size());
  for (const Span& s : spans_) {
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::kSpanEnd;
    e.name = s.name;
    e.ts_us = s.end_us;
    e.seconds = 1e-6 * static_cast<double>(s.end_us - s.start_us);
    e.span_id = s.request;
    if (s.parent >= 0) {
      e.detail = "parent=" + spans_[static_cast<std::size_t>(s.parent)].name;
    }
    proc.events.push_back(std::move(e));
  }
  return obs::trace_chrome_json({proc}, obs::mint_trace_id());
}

// ---- registry deltas -----------------------------------------------------

void CounterTotals::add_delta(const obs::MetricsSnapshot& before,
                              const obs::MetricsSnapshot& after) {
  for (const obs::MetricEntry& e : after.entries) {
    const obs::MetricEntry* b = before.find(e.name);
    if (e.kind == obs::MetricKind::kCounter) {
      sums_[e.name] += static_cast<double>(e.counter) -
                       (b != nullptr ? static_cast<double>(b->counter) : 0.0);
    } else if (e.kind == obs::MetricKind::kHistogram) {
      sums_[e.name] += e.histogram.sum - (b != nullptr ? b->histogram.sum : 0.0);
    }
  }
}

void CounterTotals::add(const obs::MetricsSnapshot& delta) {
  add_delta(obs::MetricsSnapshot{}, delta);
}

double CounterTotals::get(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

// ---- inputs --------------------------------------------------------------

namespace {

// The paper case a generated spec was jittered from ("A", "B" or "C").
std::string base_case(const core::OpAmpSpec& spec) {
  return spec.name.substr(0, spec.name.find('_'));
}

std::string sibling_binary(const Options& opt, const std::string& name) {
  return (std::filesystem::path(opt.self_exe).parent_path() / name).string();
}

void run_quiet(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot spawn " + argv[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(argv[0] + " failed");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<yield::Request> generate_requests(const Options& opt,
                                              const std::string& dir,
                                              long count, std::uint64_t seed,
                                              double yield_ratio,
                                              int yield_samples) {
  std::filesystem::remove_all(dir);
  run_quiet({sibling_binary(opt, "oasys_gen_workload"), "--dir", dir,
             "--count", std::to_string(count), "--seed", std::to_string(seed),
             "--yield-ratio", util::format("%.17g", yield_ratio),
             "--yield-samples", std::to_string(yield_samples)});

  std::ifstream manifest(dir + "/workload.tsv");
  if (!manifest) throw std::runtime_error("no manifest in " + dir);
  std::vector<yield::Request> out;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind, file;
    fields >> kind >> file;
    const core::SpecParseResult sr = core::load_opamp_spec_file(dir + "/" + file);
    if (!sr.ok()) throw std::runtime_error("generated spec does not parse: " + file);
    yield::Request r;
    r.spec = sr.spec;
    if (kind == "yield") {
      long samples = 0;
      unsigned long long yseed = 0;
      fields >> samples >> yseed;
      r.is_yield = true;
      r.params.samples = static_cast<int>(samples);
      r.params.seed = yseed;
      r.params.jobs = 1;
    } else if (kind != "synth") {
      throw std::runtime_error("unknown manifest kind: " + kind);
    }
    out.push_back(std::move(r));
  }
  std::filesystem::remove_all(dir);
  return out;
}

std::vector<yield::Request> stratify(const std::vector<yield::Request>& in,
                                     std::size_t per_case) {
  std::map<std::string, std::vector<const yield::Request*>> by_case;
  for (const yield::Request& r : in) {
    auto& v = by_case[base_case(r.spec)];
    if (v.size() < per_case) v.push_back(&r);
  }
  std::vector<yield::Request> out;
  for (std::size_t i = 0; i < per_case; ++i) {
    for (const char* c : {"A", "B", "C"}) {
      const auto& v = by_case[c];
      if (v.size() <= i) {
        throw std::runtime_error(util::format(
            "generated workload has fewer than %zu case-%s specs", per_case, c));
      }
      out.push_back(*v[i]);
    }
  }
  return out;
}

int check_paper_goldens() {
  const tech::ParseResult tr = tech::load_tech_file("tech/cmos5.tech");
  if (!tr.ok()) throw std::runtime_error("cannot load tech/cmos5.tech");
  int mismatches = 0;
  for (const char* c : {"A", "B", "C"}) {
    const core::SpecParseResult sr =
        core::load_opamp_spec_file(util::format("specs/case%s.spec", c));
    if (!sr.ok()) throw std::runtime_error("cannot load paper spec");
    const std::string got =
        synth::result_json(synth::synthesize_opamp(tr.technology, sr.spec, {})) +
        "\n";
    if (got != read_file(util::format("tests/golden/cmos5_case%s.json", c))) {
      std::fprintf(stderr, "MISMATCH: case %s differs from its golden\n", c);
      ++mismatches;
    }
  }
  return mismatches;
}

int check_yield_goldens() {
  const tech::ParseResult tr = tech::load_tech_file("tech/cmos5.tech");
  if (!tr.ok()) throw std::runtime_error("cannot load tech/cmos5.tech");
  int mismatches = 0;
  for (const char* c : {"A", "B"}) {
    const core::SpecParseResult sr =
        core::load_opamp_spec_file(util::format("specs/case%s.spec", c));
    if (!sr.ok()) throw std::runtime_error("cannot load paper spec");
    yield::YieldParams params;
    params.samples = 16;
    params.seed = 1;
    params.jobs = 1;
    const std::string got =
        yield::yield_result_json(yield::run_yield(tr.technology, sr.spec, params)) +
        "\n";
    if (got != read_file(util::format("tests/golden/cmos5_case%s_yield.json", c))) {
      std::fprintf(stderr, "MISMATCH: case %s yield differs from its golden\n", c);
      ++mismatches;
    }
  }
  return mismatches;
}

// ---- correctness ---------------------------------------------------------

namespace {

tolcmp::TolDocument tol_doc(std::vector<std::pair<std::string, double>> m) {
  tolcmp::TolDocument d;
  d.metrics = std::move(m);
  d.tol.emplace_back("*", tolcmp::Envelope{1e-9, 1e-6});
  return d;
}

std::string first_offender(const tolcmp::TolDocument& ref,
                           const tolcmp::TolDocument& got) {
  const tolcmp::CompareReport rep = tolcmp::compare_documents(ref, got);
  if (rep.ok) return "";
  const tolcmp::Offender& o = rep.offenders.front();
  return util::format("%s: reference %.17g, got %.17g %s", o.metric.c_str(),
                      o.golden, o.candidate, o.reason.c_str());
}

std::vector<std::pair<std::string, double>> perf_fields(
    const core::OpAmpPerformance& p) {
  return {{"gain_db", p.gain_db},     {"gbw", p.gbw},
          {"pm_deg", p.pm_deg},       {"slew", p.slew},
          {"swing_pos", p.swing_pos}, {"swing_neg", p.swing_neg},
          {"offset", p.offset},       {"icmr_lo", p.icmr_lo},
          {"icmr_hi", p.icmr_hi},     {"power", p.power},
          {"area", p.area},           {"cmrr_db", p.cmrr_db},
          {"psrr_db", p.psrr_db},     {"noise_in", p.noise_in}};
}

}  // namespace

std::string compare_measured(const synth::MeasuredOpAmp& ref,
                             const synth::MeasuredOpAmp& got) {
  if (!got.ok) return "measurement failed: " + got.error;
  if (!ref.ok) return "reference measurement failed: " + ref.error;
  return first_offender(tol_doc(perf_fields(ref.perf)),
                        tol_doc(perf_fields(got.perf)));
}

std::string compare_yield(const yield::YieldResult& ref,
                          const yield::YieldResult& got) {
  if (!got.ok) return "yield failed: " + got.error;
  if (synth::result_json(got.synthesis) != synth::result_json(ref.synthesis)) {
    return "yield synthesis differs from the reference";
  }
  if (got.samples_requested != ref.samples_requested ||
      got.samples_converged != ref.samples_converged ||
      got.pass_count != ref.pass_count || got.metrics.size() != ref.metrics.size()) {
    return "yield sample counts differ from the reference";
  }
  const auto fields = [](const yield::YieldResult& r) {
    std::vector<std::pair<std::string, double>> out = {{"yield", r.yield}};
    for (const yield::MetricStats& m : r.metrics) {
      for (const auto& [k, v] : std::vector<std::pair<const char*, double>>{
               {"mean", m.mean}, {"sigma", m.sigma}, {"min", m.min},
               {"max", m.max},   {"p05", m.p05},     {"p50", m.p50},
               {"p95", m.p95}}) {
        out.emplace_back(m.name + "." + k, v);
      }
    }
    return out;
  };
  return first_offender(tol_doc(fields(ref)), tol_doc(fields(got)));
}

}  // namespace perfbench
