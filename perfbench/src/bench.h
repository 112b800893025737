// Shared pieces of the OASYS end-to-end benchmark binary.
//
// perfbench runs one workload per invocation (see README.md): it sets the
// workload up several times (setup_s is the median), then drives a
// closed loop with one client for --seconds, checking every answer against
// a reference computed during setup.  An untraced run reports the
// end-to-end metrics; a traced run (--trace 1) records spans around the
// calls into each layer's public functions, diffs obs::Registry snapshots
// around each request, runs the per-layer probes, and reports the
// per-layer metrics.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "synth/oasys.h"
#include "synth/testbench.h"
#include "tech/technology.h"
#include "yield/service.h"

namespace perfbench {

using namespace oasys;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test hook: perturbs one reference after setup, so the run must
  // report a mismatch and exit nonzero.
  bool corrupt_reference = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string out_dir = ".bench_build";  // records, traces, scratch inputs
  std::string self_exe;                  // spawned as the shard worker
};

// ---- clocks and process accounting --------------------------------------

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0);
std::uint64_t now_us();

// User + system CPU seconds of this process, and of its reaped children;
// peak resident set of each [MB].
double self_cpu_s();
double children_cpu_s();
double self_peak_rss_mb();
double children_peak_rss_mb();
// CPU seconds and peak RSS of a live process, from /proc/<pid>.
double proc_cpu_s(long pid);
double proc_peak_rss_mb(long pid);

// ---- host speed ------------------------------------------------------------

// Times a fixed kernel of the benchmark's own code (the fastest of three
// runs) at once on every CPU this process may use, one pinned thread per
// CPU, because on a shared host each CPU slows on its own.  It reads how
// fast the host runs at the moment, and no change to the program under
// test can move it.  The threads sleep between runs, so they take no CPU
// from a call.
class HostProbe {
 public:
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Probe microseconds, the mean over CPUs.
  double run();

 private:
  void loop(std::size_t slot);

  std::vector<int> cpus_;  // -1: not pinned
  std::vector<double> us_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_, done_;
  std::uint64_t generation_ = 0;
  std::size_t finished_ = 0;
  bool stop_ = false;
};

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> v);
// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

// ---- spans ---------------------------------------------------------------

// In-memory span recorder for the traced run.  Each span has a name,
// start, end, parent and the id of the request it belongs to; spans stay
// in memory until the run ends and are then written as a Chrome trace.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  // RAII scope; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Wall seconds since the scope opened (valid whether or not tracing).
    double elapsed() const { return seconds_since(t0_); }

   private:
    Tracer& t_;
    int index_ = -1;
    Clock::time_point t0_;
  };

  bool enabled = false;
  std::uint64_t request = 0;  // id stamped on spans opened from now on

  const std::vector<Span>& spans() const { return spans_; }
  // Summed duration of every span named `name` [s].
  double total_s(const std::string& name) const;
  // Per-name span count, total and self time (duration minus the time its
  // child spans cover), as a text table.
  std::string self_time_table() const;
  // Chrome trace-event JSON via obs::trace_chrome_json, one process lane
  // named after the workload.
  std::string chrome_json(const std::string& lane) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- registry deltas -----------------------------------------------------

// Sums counter deltas between registry snapshots (or whole snapshots that
// already are deltas, such as a worker's per-cycle metrics).
class CounterTotals {
 public:
  void add_delta(const obs::MetricsSnapshot& before,
                 const obs::MetricsSnapshot& after);
  void add(const obs::MetricsSnapshot& delta);
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> sums_;
};

// ---- inputs --------------------------------------------------------------

// Runs oasys_gen_workload (next to this binary) into `dir` and parses its
// manifest into requests, in manifest order.
std::vector<yield::Request> generate_requests(const Options& opt,
                                              const std::string& dir,
                                              long count, std::uint64_t seed,
                                              double yield_ratio,
                                              int yield_samples);

// Picks `per_case` requests of each paper case, in manifest order, and
// interleaves them A, B, C, A, B, C, ...  Throws when a case is short.
std::vector<yield::Request> stratify(const std::vector<yield::Request>& in,
                                     std::size_t per_case);

// Synthesizes the three paper cases from specs/ with tech/cmos5.tech and
// compares them byte for byte against tests/golden/cmos5_case{A,B,C}.json.
// Returns the number of mismatches (diagnostics on stderr).
int check_paper_goldens();

// The yield goldens tests/golden/cmos5_case{A,B}_yield.json likewise.
int check_yield_goldens();

// ---- correctness ---------------------------------------------------------

// Measured performance compared under tolcmp rules (|c - r| <= 1e-9 +
// 1e-6 |r|, NaN matches NaN).  Returns an empty string when equal.
std::string compare_measured(const synth::MeasuredOpAmp& ref,
                             const synth::MeasuredOpAmp& got);
// Yield statistics under the same envelope; counts must match exactly and
// the underlying synthesis byte for byte.
std::string compare_yield(const yield::YieldResult& ref,
                          const yield::YieldResult& got);

// ---- run record ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Provenance and notes written to the run record, not to stdout's
  // result line.
  std::vector<std::pair<std::string, std::string>> notes;
  std::string report;      // human text printed before the result line
  std::string trace_json;  // traced run: the spans as a Chrome trace
};

// Executes one run of `opt.workload`; throws on an unknown workload.
RunResult run_workload(const Options& opt);

}  // namespace perfbench
