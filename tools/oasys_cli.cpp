// oasys — command-line driver for the synthesis framework.
//
// Mirrors the paper's tool interface: a technology file and a performance
// specification in, a sized transistor schematic and its verification out.
//
// Usage:
//   oasys --spec case_b.spec [--tech tech/cmos5.tech] [--verify]
//         [--export out.sp] [--trace] [--no-rules]
//   oasys batch DIR-OR-SPEC... [--tech FILE] [--jobs N]
//         [--cache-size N] [--no-cache] [--no-rules] [--no-stats]
//         [--connect SOCKET]
//   oasys shard DIR-OR-SPEC... [--workers N] [--worker-timeout S]
//         [batch options]
//   oasys serve --socket PATH [--workers N] [serve options]
//   oasys yield SPEC [--samples N] [--seed S] [--json] [options]
//   oasys golden DIR-OR-SPEC... [--tech FILE] [--dir DIR] [--no-rules]
//
// `yield` synthesizes a spec and runs deterministic Monte-Carlo mismatch
// analysis over it (src/yield/): N perturbed instances drawn from
// counter-based per-sample RNG streams, measured through the simulator
// hot path, reduced to per-metric statistics and an overall pass yield —
// bit-identical at every --jobs setting, worker count, and sample
// partitioning.  `batch --yield-samples N` runs the same analysis for
// every spec in the batch (and `shard`/`--connect` serve it remotely
// with byte-identical output).
//
// `shard` is `batch` across N worker processes: requests partition by
// canonical fingerprint, each worker runs a private SynthesisService, and
// the merged output is byte-identical to `batch` (compare with --no-stats,
// which drops the timing-bearing footer from both).  `serve` keeps that
// worker pool resident behind a unix-domain socket; `batch --connect`
// routes the batch through the daemon with the same byte-identical
// output.  Both run on one event-loop coordinator (src/serve/): `shard`
// is one in-process session on it.  `shard-worker` is the internal child
// mode the coordinator spawns; it speaks the wire protocol on
// stdin/stdout and is not for interactive use.  `golden`
// writes the canonical result JSON (oasys.result.v1) per spec — the
// regeneration path for tests/golden/.
//
// With no --spec, prints the built-in paper test cases as templates.
//
// Exit codes (scriptable): 0 = every requested synthesis selected a
// design; 1 = synthesis, verification, or input failure (including "no
// feasible style", any failed spec in a batch, and any shard worker
// failure); 2 = usage error.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/spec_parser.h"
#include "exec/executor.h"
#include "netlist/spice_writer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/client.h"
#include "serve/server.h"
#include "service/service.h"
#include "shard/coordinator.h"
#include "shard/worker.h"
#include "spice/sim_options.h"
#include "synth/oasys.h"
#include "synth/report.h"
#include "synth/result_json.h"
#include "synth/sar_adc.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "tech/tech_parser.h"
#include "util/table.h"
#include "util/text.h"
#include "util/units.h"
#include "yield/service.h"
#include "yield/yield.h"

namespace {

int usage() {
  std::puts(
      "usage: oasys --spec FILE [options]\n"
      "       oasys batch DIR-OR-SPEC... [options]\n"
      "       oasys shard DIR-OR-SPEC... [--workers N] [batch options]\n"
      "       oasys serve --socket PATH [--workers N] [serve options]\n"
      "       oasys stat --connect SOCKET [--json]\n"
      "       oasys yield SPEC [--samples N] [--seed S] [--json] "
      "[options]\n"
      "       oasys golden DIR-OR-SPEC... [--dir DIR] [options]\n"
      "options:\n"
      "  --spec FILE     performance specification (key-value; see below)\n"
      "  --tech FILE     technology file (default: built-in 5 um CMOS)\n"
      "  --verify        run the circuit-simulator measurement suite\n"
      "  --export FILE   write the synthesized design as a SPICE deck\n"
      "  --trace         print the full plan-execution narrative and, last,\n"
      "                  the span timeline (synthesis and verification)\n"
      "  --metrics-json F  write the process metrics registry as JSON to F\n"
      "  --no-rules      disable plan-patching rules (ablation)\n"
      "  --jobs N        worker threads for synthesis + simulation\n"
      "                  (default: hardware concurrency; 1 = serial;\n"
      "                  results are identical at every setting)\n"
      "  --tran-mode M   transient integrator: 'fixed' (uniform-step\n"
      "                  reference, default) or 'adaptive' (embedded-error\n"
      "                  step control; tolerance-equal to fixed, not\n"
      "                  bit-equal, so the mode is part of cache keys and\n"
      "                  the wire config — fixed and adaptive never share\n"
      "                  a cache entry)\n"
      "  --tran-rtol R   adaptive relative error tolerance (default 1e-3)\n"
      "  --tran-atol A   adaptive absolute error tolerance (default 1e-6)\n"
      "  --templates     print the paper's test cases as spec templates\n"
      "batch mode (runs every .spec through the synthesis service):\n"
      "  --cache-size N  result-cache capacity in entries (default 256;\n"
      "                  0 disables the cache)\n"
      "  --no-cache      disable the result cache\n"
      "  --no-stats      omit the timing-bearing service/metrics footer,\n"
      "                  leaving only deterministic output (batch and\n"
      "                  shard print identical bytes under this flag)\n"
      "  --connect SOCK  route the batch through a running `oasys serve`\n"
      "                  daemon at the unix socket SOCK (output stays\n"
      "                  byte-identical to a local batch)\n"
      "  --sort ORDER    summary row order: 'name' (spec name) or\n"
      "                  'latency' (slowest first; local batch only).\n"
      "                  Default: submission order — operands in the\n"
      "                  order given, directories expanded sorted by\n"
      "                  path\n"
      "  --yield-samples N  run Monte-Carlo yield analysis with N\n"
      "                  mismatch samples per spec instead of plain\n"
      "                  synthesis (batch, shard, and --connect print\n"
      "                  byte-identical summaries)\n"
      "  --yield-seed S  yield analysis RNG seed (default 1)\n"
      "  --trace         print the merged span timeline after the summary\n"
      "                  (batch and shard: one trace id per run, every\n"
      "                  request tagged with a span id that survives the\n"
      "                  trip through workers and the daemon)\n"
      "  --trace-json F  write the merged timeline as a Chrome trace-event\n"
      "                  JSON file (load in Perfetto / chrome://tracing);\n"
      "                  coordinator and worker spans share one trace id.\n"
      "                  Tracing never changes deterministic output bytes\n"
      "shard mode (batch across worker processes; same results, same\n"
      "output):\n"
      "  --workers N     worker process count (default 2)\n"
      "  --worker-timeout S  per-worker progress deadline in seconds; a\n"
      "                  worker silent for S seconds is killed and its\n"
      "                  specs get deterministic errors (default: off)\n"
      "serve mode (resident daemon; clients attach via batch --connect):\n"
      "  --socket PATH   unix-domain socket to listen on (required)\n"
      "  --workers N     resident worker process count (default 2)\n"
      "  --worker-timeout S  per-worker progress deadline (default 30)\n"
      "  --shared-cache-size N  coordinator-owned shared result-cache\n"
      "                  entries consulted before routing (default 256;\n"
      "                  0 disables the shared tier)\n"
      "  --slow-ms T     log a structured JSON record to stderr for every\n"
      "                  request answered more than T ms after its cycle\n"
      "                  was dispatched (0 disables; timing-class only)\n"
      "  SIGTERM/SIGINT drain gracefully: in-flight batches finish,\n"
      "  workers exit at cycle boundaries, then the daemon exits 0\n"
      "stat mode (live daemon introspection over the admin frame):\n"
      "  --connect SOCK  daemon socket to query (required)\n"
      "  --json          print the canonical oasys.status.v1 document\n"
      "                  instead of the human table\n"
      "yield mode (deterministic Monte-Carlo mismatch analysis):\n"
      "  --samples N     mismatch sample count (default 200)\n"
      "  --seed S        RNG seed (default 1); (seed, sample index)\n"
      "                  fully determine each sample's perturbation, so\n"
      "                  results are bit-identical at every --jobs\n"
      "                  setting and worker count\n"
      "  --json          print the canonical oasys.result.v1 document\n"
      "                  with its yield section instead of the summary\n"
      "golden mode (canonical result JSON per spec, for tests/golden/):\n"
      "  --dir DIR       write DIR/<tech>_<spec>.json instead of stdout\n"
      "  --yield-samples N / --yield-seed S  write yield documents\n"
      "                  (DIR/<tech>_<spec>_yield.json) instead\n"
      "  --tol           write the tolerance-pinned golden suite\n"
      "                  (oasys.tol.v1: built-in op-amp, comparator, and\n"
      "                  SAR subjects measured under the adaptive\n"
      "                  transient, each with its per-metric tolerance\n"
      "                  envelopes; DIR/tol_<tech>_<subject>.json).\n"
      "                  Spec operands are ignored; defaults to\n"
      "                  --tran-mode adaptive unless one is given\n"
      "exit codes: 0 success, 1 synthesis/verification/input failure\n"
      "(including no feasible style), 2 usage error\n");
  return 2;
}

// Parses a non-negative integer CLI value; returns false on garbage.
bool parse_count(const char* v, long min_value, long* out) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v, &end, 10);
  if (errno == ERANGE || end == v || *end != '\0' || n < min_value) {
    return false;
  }
  *out = n;
  return true;
}

// Parses a non-negative seconds value (fractions allowed; 0 disables the
// deadline it configures).
bool parse_seconds(const char* v, double* out) {
  char* end = nullptr;
  errno = 0;
  const double s = std::strtod(v, &end);
  if (errno == ERANGE || end == v || *end != '\0' || s < 0.0 ||
      !(s == s)) {
    return false;
  }
  *out = s;
  return true;
}

bool apply_jobs(const char* v, long* out = nullptr) {
  long n = 0;
  if (!parse_count(v, 1, &n)) {
    std::fprintf(stderr, "--jobs requires a positive integer, got '%s'\n",
                 v);
    return false;
  }
  oasys::exec::set_default_jobs(static_cast<std::size_t>(n));
  if (out != nullptr) *out = n;
  return true;
}

// Sets the process-wide transient stepping strategy.  This is
// semantically meaningful: adaptive results are tolerance-equal, not
// bit-equal, to fixed-step, so the resolved mode is also stamped into
// every SynthOptions (stamp_tran_options) where it enters cache keys and
// the wire config.
bool apply_tran_mode(const char* v) {
  oasys::sim::TranMode mode = oasys::sim::TranMode::kDefault;
  if (!oasys::sim::parse_tran_mode(v, &mode)) {
    std::fprintf(stderr,
                 "--tran-mode must be 'fixed' or 'adaptive', got '%s'\n", v);
    return false;
  }
  oasys::sim::set_tran_mode_default(mode);
  return true;
}

bool apply_tran_tolerance(const char* flag, const char* v, bool is_rtol) {
  char* end = nullptr;
  errno = 0;
  const double tol = std::strtod(v, &end);
  if (errno == ERANGE || end == v || *end != '\0' || !(tol > 0.0) ||
      !(tol < 1e300)) {
    std::fprintf(stderr, "%s requires a positive number, got '%s'\n", flag,
                 v);
    return false;
  }
  const oasys::sim::TranTolerance cur = oasys::sim::tran_tolerance_default();
  oasys::sim::set_tran_tolerance_default(is_rtol ? tol : cur.rtol,
                                         is_rtol ? cur.atol : tol);
  return true;
}

// Stamps the fully resolved transient-engine selection into the options
// that travel to services and worker processes.  Values are never left as
// kDefault / 0 here: the canonical fingerprint — and therefore cache keys,
// shard routing, and the wire config hash — must be identical no matter
// which process re-derives it (the shard worker's drift guard re-hashes
// the decoded struct and refuses to serve on mismatch).
void stamp_tran_options(oasys::synth::SynthOptions* opts) {
  opts->tran_mode =
      oasys::sim::resolve_tran_mode(oasys::sim::TranMode::kDefault);
  const oasys::sim::TranTolerance tol = oasys::sim::tran_tolerance_default();
  opts->tran_rtol = tol.rtol;
  opts->tran_atol = tol.atol;
}

// Writes the metrics registry as JSON when a --metrics-json path was
// given.  Returns false (exit code 1) when the file cannot be written.
bool write_metrics(const std::string& path) {
  if (path.empty()) return true;
  if (!oasys::obs::write_metrics_json(path)) return false;
  std::printf("metrics written to %s\n", path.c_str());
  return true;
}

// Shard mode writes the coordinator's merged snapshot, not this process's
// registry (the coordinator itself synthesizes nothing).
bool write_metrics_snapshot(const std::string& path,
                            const oasys::obs::MetricsSnapshot& snapshot) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (out) out << oasys::obs::metrics_json(snapshot) << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write metrics JSON to '%s'\n",
                 path.c_str());
    return false;
  }
  std::printf("metrics written to %s\n", path.c_str());
  return true;
}

// Loads the technology (built-in 5 um CMOS unless a file is given).
// Returns false after printing diagnostics.
bool load_technology(const std::string& tech_path, oasys::tech::Technology* t) {
  *t = oasys::tech::five_micron();
  if (tech_path.empty()) return true;
  const oasys::tech::ParseResult r = oasys::tech::load_tech_file(tech_path);
  if (!r.ok()) {
    std::fprintf(stderr, "technology file errors:\n%s",
                 r.log.to_string().c_str());
    return false;
  }
  *t = r.technology;
  return true;
}

// Expands batch operands: a directory contributes every *.spec inside it
// (sorted by name for a stable run order), anything else is taken as a
// spec file path.
std::vector<std::string> expand_spec_paths(
    const std::vector<std::string>& operands) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& op : operands) {
    std::error_code ec;
    if (fs::is_directory(op, ec)) {
      std::vector<std::string> found;
      for (const auto& ent : fs::directory_iterator(op, ec)) {
        if (ent.path().extension() == ".spec") {
          found.push_back(ent.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      paths.insert(paths.end(), found.begin(), found.end());
    } else {
      paths.push_back(op);
    }
  }
  return paths;
}

// Parses the spec files named by `operands`; parse failures go to stderr
// and set *parse_failed without aborting the rest of the batch.
bool load_specs(const std::vector<std::string>& operands,
                std::vector<std::string>* spec_paths,
                std::vector<oasys::core::OpAmpSpec>* specs,
                bool* parse_failed) {
  const std::vector<std::string> paths = expand_spec_paths(operands);
  if (paths.empty()) {
    std::fprintf(stderr, "no .spec files found\n");
    return false;
  }
  for (const std::string& path : paths) {
    const oasys::core::SpecParseResult sr =
        oasys::core::load_opamp_spec_file(path);
    if (!sr.ok()) {
      std::fprintf(stderr, "%s: spec errors:\n%s", path.c_str(),
                   sr.log.to_string().c_str());
      *parse_failed = true;
      continue;
    }
    spec_paths->push_back(path);
    specs->push_back(sr.spec);
  }
  return true;
}

// One synthesis row in the batch/shard summary table.  Shared by the
// plain and mixed printers so identical outcomes print identical bytes
// (the conformance tests byte-compare batch against shard/--connect).
void add_synth_row(oasys::util::Table& table, const std::string& spec_path,
                   const oasys::synth::SynthesisResult& r, int* failures) {
  using namespace oasys;
  if (r.success()) {
    const synth::OpAmpDesign& best = *r.best();
    table.add_row({spec_path, r.spec.name, best.style_name(),
                   best.soft_violations > 0 ? "first-cut" : "ok",
                   util::format("%.0f", util::in_um2(best.predicted.area)),
                   ""});
  } else {
    ++*failures;
    table.add_row({spec_path, r.spec.name, "-", "FAIL", "-",
                   synth::failure_brief(r)});
  }
}

void print_summary_footer(int failures, int errors, std::size_t n) {
  if (failures > 0) {
    std::printf("%d of %zu specs selected no feasible style.\n", failures,
                n);
  }
  if (errors > 0) {
    std::printf("%d of %zu specs failed with errors.\n", errors, n);
  }
}

// Renders the per-spec summary table shared by batch and shard mode —
// identical outcomes must print identical bytes, since the shard
// conformance tests byte-compare the two.  An outcome is any type with
// `result`, `error`, and ok() (service::BatchOutcome, shard::ShardOutcome).
// `failures` counts specs that selected no feasible style; `errors` counts
// specs whose synthesis (or worker) failed outright.
template <typename Outcome>
void print_summary(const std::vector<std::string>& spec_paths,
                   const std::vector<oasys::core::OpAmpSpec>& specs,
                   const std::vector<Outcome>& outcomes, int* failures,
                   int* errors) {
  using namespace oasys;
  util::Table table({"spec", "name", "style", "result", "area um^2",
                     "detail"});
  table.set_align(4, util::Align::kRight);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.ok()) {
      ++*errors;
      table.add_row({spec_paths[i], specs[i].name, "-", "ERROR", "-",
                     o.error});
      continue;
    }
    add_synth_row(table, spec_paths[i], o.result, failures);
  }
  std::fputs(table.to_string().c_str(), stdout);
  print_summary_footer(*failures, *errors, outcomes.size());
}

// print_summary for mixed synthesis/yield outcomes (yield::Outcome,
// shard::ShardOutcome): yield rows carry the pass yield in the detail
// column.  Byte-identity between batch, shard, and --connect holds here
// too — all three print through this one function.
template <typename Outcome>
void print_mixed_summary(const std::vector<std::string>& spec_paths,
                         const std::vector<oasys::core::OpAmpSpec>& specs,
                         const std::vector<Outcome>& outcomes,
                         int* failures, int* errors) {
  using namespace oasys;
  util::Table table({"spec", "name", "style", "result", "area um^2",
                     "detail"});
  table.set_align(4, util::Align::kRight);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.ok()) {
      ++*errors;
      table.add_row({spec_paths[i], specs[i].name, "-", "ERROR", "-",
                     o.error});
      continue;
    }
    if (!o.is_yield) {
      add_synth_row(table, spec_paths[i], o.result, failures);
      continue;
    }
    const yield::YieldResult& y = o.yield;
    if (!y.ok) {
      ++*failures;
      table.add_row({spec_paths[i], specs[i].name, "-", "FAIL", "-",
                     y.error});
      continue;
    }
    const synth::OpAmpDesign& best = *y.synthesis.best();
    table.add_row(
        {spec_paths[i], y.synthesis.spec.name, best.style_name(),
         best.soft_violations > 0 ? "first-cut" : "ok",
         util::format("%.0f", util::in_um2(best.predicted.area)),
         util::format("yield %.1f%% (%llu/%d)", y.yield * 100.0,
                      static_cast<unsigned long long>(y.pass_count),
                      y.samples_requested)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  print_summary_footer(*failures, *errors, outcomes.size());
}

// Reorders the summary rows for --sort.  Sorting is presentation only —
// outcomes are computed in submission order and stay bit-identical; a
// stable sort keeps submission order among ties.  'latency' is only
// instantiated for outcome types that carry a service time.
template <typename Outcome>
void sort_rows(const std::string& order,
               std::vector<std::string>* spec_paths,
               std::vector<oasys::core::OpAmpSpec>* specs,
               std::vector<Outcome>* outcomes) {
  if (order.empty()) return;
  std::vector<std::size_t> idx(outcomes->size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  if (order == "name") {
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       return (*specs)[a].name < (*specs)[b].name;
                     });
  } else if (order == "latency") {
    if constexpr (requires(const Outcome& o) { o.seconds; }) {
      // Slowest first: the rows worth looking at float to the top.
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::size_t a, std::size_t b) {
                         return (*outcomes)[a].seconds >
                                (*outcomes)[b].seconds;
                       });
    }
  }
  std::vector<std::string> paths2(idx.size());
  std::vector<oasys::core::OpAmpSpec> specs2(idx.size());
  std::vector<Outcome> outcomes2(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    paths2[i] = std::move((*spec_paths)[idx[i]]);
    specs2[i] = std::move((*specs)[idx[i]]);
    outcomes2[i] = std::move((*outcomes)[idx[i]]);
  }
  *spec_paths = std::move(paths2);
  *specs = std::move(specs2);
  *outcomes = std::move(outcomes2);
}

// Options shared by batch and shard mode.
struct BatchArgs {
  std::vector<std::string> operands;
  std::string tech_path;
  std::string metrics_path;
  std::string connect_path;  // batch mode only: route through a daemon
  std::string sort;          // batch mode only: "", "name", or "latency"
  std::string trace_json_path;  // --trace-json: Chrome trace-event file
  bool trace = false;           // --trace: print the merged span timeline
  bool rules = true;
  bool show_stats = true;
  long jobs = 0;               // 0 = default concurrency
  long workers = 2;            // shard mode only
  double worker_timeout = 0.0;  // shard mode only; 0 = no deadline
  long yield_samples = 0;      // > 0: every spec becomes a yield request
  long yield_seed = 1;
  oasys::service::ServiceOptions sopts;
};

// Returns 0 on success, 2 (after usage()) on a bad command line.
int parse_batch_args(int argc, char** argv, bool shard_mode,
                     BatchArgs* out) {
  using oasys::util::starts_with;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tech") {
      const char* v = next();
      if (v == nullptr) return usage();
      out->tech_path = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !apply_jobs(v, &out->jobs)) return usage();
    } else if (arg == "--tran-mode") {
      const char* v = next();
      if (v == nullptr || !apply_tran_mode(v)) return usage();
    } else if (arg == "--tran-rtol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-rtol", v, true)) {
        return usage();
      }
    } else if (arg == "--tran-atol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-atol", v, false)) {
        return usage();
      }
    } else if (arg == "--cache-size") {
      const char* v = next();
      long n = 0;
      if (v == nullptr || !parse_count(v, 0, &n)) {
        std::fprintf(stderr,
                     "--cache-size requires a non-negative integer\n");
        return usage();
      }
      out->sopts.cache_capacity = static_cast<std::size_t>(n);
      if (n == 0) out->sopts.cache_enabled = false;
    } else if (arg == "--no-cache") {
      out->sopts.cache_enabled = false;
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return usage();
      out->metrics_path = v;
    } else if (arg == "--no-rules") {
      out->rules = false;
    } else if (arg == "--no-stats") {
      out->show_stats = false;
    } else if (arg == "--trace") {
      out->trace = true;
    } else if (arg == "--trace-json") {
      const char* v = next();
      if (v == nullptr) return usage();
      out->trace_json_path = v;
    } else if (shard_mode && arg == "--workers") {
      const char* v = next();
      if (v == nullptr || !parse_count(v, 1, &out->workers)) {
        std::fprintf(stderr, "--workers requires a positive integer\n");
        return usage();
      }
    } else if (shard_mode && arg == "--worker-timeout") {
      const char* v = next();
      if (v == nullptr || !parse_seconds(v, &out->worker_timeout)) {
        std::fprintf(stderr,
                     "--worker-timeout requires a non-negative number of "
                     "seconds\n");
        return usage();
      }
    } else if (!shard_mode && arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return usage();
      out->connect_path = v;
    } else if (!shard_mode && arg == "--sort") {
      const char* v = next();
      if (v == nullptr ||
          (std::string(v) != "name" && std::string(v) != "latency")) {
        std::fprintf(stderr, "--sort must be 'name' or 'latency'\n");
        return usage();
      }
      out->sort = v;
    } else if (arg == "--yield-samples") {
      const char* v = next();
      if (v == nullptr || !parse_count(v, 1, &out->yield_samples)) {
        std::fprintf(stderr,
                     "--yield-samples requires a positive integer\n");
        return usage();
      }
    } else if (arg == "--yield-seed") {
      const char* v = next();
      if (v == nullptr || !parse_count(v, 0, &out->yield_seed)) {
        std::fprintf(stderr,
                     "--yield-seed requires a non-negative integer\n");
        return usage();
      }
    } else if (starts_with(arg, "--")) {
      std::fprintf(stderr, "unknown %s option '%s'\n",
                   shard_mode ? "shard" : "batch", arg.c_str());
      return usage();
    } else {
      out->operands.push_back(arg);
    }
  }
  if (out->operands.empty()) {
    std::fprintf(stderr, "%s mode needs at least one spec file or "
                         "directory\n",
                 shard_mode ? "shard" : "batch");
    return usage();
  }
  // Latency sorting needs the per-request service time, which only the
  // local synthesis service reports.
  if (out->sort == "latency" &&
      (!out->connect_path.empty() || out->yield_samples > 0)) {
    std::fprintf(stderr,
                 "--sort latency is only available for a plain local "
                 "batch (not --connect or --yield-samples)\n");
    return usage();
  }
  return 0;
}

// Builds the mixed request list for --yield-samples: every spec becomes
// one yield request with the batch's (samples, seed).
std::vector<oasys::yield::Request> yield_requests(
    const std::vector<oasys::core::OpAmpSpec>& specs,
    const BatchArgs& args) {
  std::vector<oasys::yield::Request> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    requests[i].spec = specs[i];
    requests[i].is_yield = true;
    requests[i].params.samples = static_cast<int>(args.yield_samples);
    requests[i].params.seed =
        static_cast<std::uint64_t>(args.yield_seed);
  }
  return requests;
}

// Tags every request with the run's trace id and a per-request span id
// derived from the submission index — the same derivation the shard
// coordinator uses, so local, --connect, and shard runs correlate the
// same way.  No-op (and no byte changes anywhere) when tracing is off.
void apply_trace_ids(std::uint64_t trace_id,
                     std::vector<oasys::yield::Request>* requests) {
  if (trace_id == 0) return;
  for (std::size_t i = 0; i < requests->size(); ++i) {
    (*requests)[i].trace_id = trace_id;
    (*requests)[i].span_id = oasys::obs::span_id_for(trace_id, i);
  }
}

// Renders the merged cross-process timeline after a traced run: this
// process's own events (drained from the global collector — the
// coordinator lane) plus every worker span set, correlated by trace id.
// --trace prints the text view after the summary; --trace-json writes
// the Chrome trace-event file (Perfetto-loadable).  All of it is
// timing-class output — the deterministic summary bytes above are
// already printed and untouched.  Returns false when the JSON file
// cannot be written.
bool export_batch_trace(const BatchArgs& args, std::uint64_t trace_id,
                        const std::vector<oasys::shard::SpanSet>& spans) {
  using namespace oasys;
  if (trace_id == 0) return true;

  std::vector<obs::TraceProcess> processes;
  processes.push_back(
      obs::TraceProcess{0, "coordinator", obs::drain_global_trace()});
  // One lane per shard (pid = shard + 1); a shard's span sets arrive in
  // flush order, so appending keeps each lane's events in emit order.
  for (const shard::SpanSet& set : spans) {
    const std::uint64_t lane = set.shard + 1;
    auto it = std::find_if(
        processes.begin(), processes.end(),
        [&](const obs::TraceProcess& p) { return p.pid == lane; });
    if (it == processes.end()) {
      processes.push_back(obs::TraceProcess{
          lane, util::format("worker %llu",
                             static_cast<unsigned long long>(set.shard)),
          {}});
      it = processes.end() - 1;
    }
    it->events.insert(it->events.end(), set.events.begin(),
                      set.events.end());
  }

  if (args.trace) {
    std::printf("\ntrace %016llx:\n",
                static_cast<unsigned long long>(trace_id));
    for (const obs::TraceProcess& p : processes) {
      if (p.events.empty()) continue;
      std::printf("-- %s --\n", p.name.c_str());
      std::fputs(obs::trace_text(p.events).c_str(), stdout);
    }
  }
  if (!args.trace_json_path.empty()) {
    std::ofstream out(args.trace_json_path);
    if (out) out << obs::trace_chrome_json(processes, trace_id) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write trace JSON to '%s'\n",
                   args.trace_json_path.c_str());
      return false;
    }
    std::printf("trace written to %s\n", args.trace_json_path.c_str());
  }
  return true;
}

// `oasys batch`: every spec file through the synthesis service, then a
// summary table plus (unless --no-stats) the service's cache/latency
// statistics.  Returns 1 when any spec fails to parse, errors out, or
// selects no feasible style.
int run_batch_mode(int argc, char** argv) {
  using namespace oasys;

  BatchArgs args;
  if (const int rc = parse_batch_args(argc, argv, /*shard_mode=*/false,
                                      &args);
      rc != 0) {
    return rc;
  }

  tech::Technology t;
  if (!load_technology(args.tech_path, &t)) return 1;

  std::vector<std::string> spec_paths;
  std::vector<core::OpAmpSpec> specs;
  bool parse_failed = false;
  if (!load_specs(args.operands, &spec_paths, &specs, &parse_failed)) {
    return 1;
  }

  synth::SynthOptions opts;
  opts.rules_enabled = args.rules;
  stamp_tran_options(&opts);

  // Tracing mints one trace id for the whole run and turns on the global
  // span collector; every request is tagged so worker spans correlate.
  // Deterministic output is untouched — the timeline renders after the
  // summary (--trace) or into a separate file (--trace-json).
  std::uint64_t trace_id = 0;
  if (args.trace || !args.trace_json_path.empty()) {
    obs::set_tracing_enabled(true);
    trace_id = obs::mint_trace_id();
  }

  // --connect: same specs, same outcomes, same summary bytes — the work
  // just runs in the daemon's resident worker pool instead of here.
  if (!args.connect_path.empty()) {
    serve::ConnectReport report;
    serve::MixedConnectReport mixed;
    int failures = 0;
    int errors = 0;
    try {
      if (args.yield_samples > 0) {
        std::vector<yield::Request> requests = yield_requests(specs, args);
        apply_trace_ids(trace_id, &requests);
        mixed = serve::run_connected_mixed(args.connect_path, t, opts,
                                           requests);
      } else {
        report = serve::run_connected_batch(args.connect_path, t, opts,
                                            specs, trace_id);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    if (args.yield_samples > 0) {
      report.metrics = std::move(mixed.metrics);
      report.stats = mixed.stats;
      report.worker_spans = std::move(mixed.worker_spans);
      sort_rows(args.sort, &spec_paths, &specs, &mixed.outcomes);
      print_mixed_summary(spec_paths, specs, mixed.outcomes, &failures,
                          &errors);
    } else {
      sort_rows(args.sort, &spec_paths, &specs, &report.outcomes);
      print_summary(spec_paths, specs, report.outcomes, &failures,
                    &errors);
    }
    if (args.show_stats) {
      const service::ServiceStats& st = report.stats;
      std::printf(
          "\nserve: daemon at %s\n"
          "workers (cumulative): %llu requests, %llu hits, %llu misses, "
          "%llu dedup joins, %llu evictions\n",
          args.connect_path.c_str(),
          static_cast<unsigned long long>(st.requests),
          static_cast<unsigned long long>(st.hits),
          static_cast<unsigned long long>(st.misses),
          static_cast<unsigned long long>(st.dedup_joins),
          static_cast<unsigned long long>(st.evictions));
      std::puts("\nmetrics (daemon merged):");
      std::fputs(obs::metrics_table(report.metrics).c_str(), stdout);
    }
    if (!export_batch_trace(args, trace_id, report.worker_spans)) return 1;
    if (!write_metrics_snapshot(args.metrics_path, report.metrics)) {
      return 1;
    }
    return (failures > 0 || errors > 0 || parse_failed) ? 1 : 0;
  }

  // Local run: plain synthesis through the SynthesisService, or (with
  // --yield-samples) the mixed path through the YieldService that the
  // shard workers also use — so the summary bytes match `oasys shard`.
  int failures = 0;
  int errors = 0;
  service::ServiceStats stats;
  if (args.yield_samples > 0) {
    yield::YieldService svc(t, opts, args.sopts);
    std::vector<yield::Request> requests = yield_requests(specs, args);
    apply_trace_ids(trace_id, &requests);
    std::vector<yield::Outcome> outcomes = svc.run_mixed(requests);
    stats = svc.stats();
    sort_rows(args.sort, &spec_paths, &specs, &outcomes);
    print_mixed_summary(spec_paths, specs, outcomes, &failures, &errors);
  } else {
    service::SynthesisService svc(t, opts, args.sopts);
    std::vector<service::BatchOutcome> outcomes =
        svc.run_batch_outcomes(specs);
    stats = svc.stats();
    sort_rows(args.sort, &spec_paths, &specs, &outcomes);
    print_summary(spec_paths, specs, outcomes, &failures, &errors);
  }

  if (args.show_stats) {
    const service::ServiceStats st = stats;
    const double hit_ratio =
        st.requests == 0
            ? 0.0
            : static_cast<double>(st.hits) /
                  static_cast<double>(st.requests);
    std::printf(
        "\nservice: %llu requests, %llu hits, %llu misses, %llu dedup "
        "joins, %llu evictions\n"
        "cache hit ratio %.1f%%, queue high-water %zu, cache entries %zu "
        "(%s)\n",
        static_cast<unsigned long long>(st.requests),
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.misses),
        static_cast<unsigned long long>(st.dedup_joins),
        static_cast<unsigned long long>(st.evictions), hit_ratio * 100.0,
        st.queue_high_water, st.cache_size,
        args.sopts.cache_enabled ? "enabled" : "disabled");
    std::printf(
        "latency per request: min %.3f ms, p50 %.3f ms, mean %.3f ms, "
        "p95 %.3f ms, max %.3f ms\n",
        st.latency.min_s * 1e3, st.latency.p50_s * 1e3,
        st.latency.mean_s * 1e3, st.latency.p95_s * 1e3,
        st.latency.max_s * 1e3);

    // Per-layer metrics summary: what the batch actually did downstream
    // of the service (plan steps, Newton iterations, executor traffic).
    std::puts("\nmetrics:");
    std::fputs(
        obs::metrics_table(obs::Registry::global().snapshot()).c_str(),
        stdout);
  }

  // A local run has no worker lanes: everything this process emitted —
  // including the per-request spans the service tagged with their span
  // ids — lands in the coordinator lane.
  if (!export_batch_trace(args, trace_id, {})) return 1;
  if (!write_metrics(args.metrics_path)) return 1;
  return (failures > 0 || errors > 0 || parse_failed) ? 1 : 0;
}

// Path of the running binary, for respawning as `oasys shard-worker`.
std::string self_executable(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

// `oasys shard`: the batch workload partitioned across worker processes.
// The summary table is byte-identical to batch mode; the footer reports
// per-worker traffic and the merged metrics instead of one service's.
int run_shard_mode(int argc, char** argv, const char* argv0) {
  using namespace oasys;

  BatchArgs args;
  if (const int rc = parse_batch_args(argc, argv, /*shard_mode=*/true,
                                      &args);
      rc != 0) {
    return rc;
  }

  tech::Technology t;
  if (!load_technology(args.tech_path, &t)) return 1;

  std::vector<std::string> spec_paths;
  std::vector<core::OpAmpSpec> specs;
  bool parse_failed = false;
  if (!load_specs(args.operands, &spec_paths, &specs, &parse_failed)) {
    return 1;
  }

  synth::SynthOptions opts;
  opts.rules_enabled = args.rules;
  // Workers are separate processes: the coordinator's thread default does
  // not reach them, so --jobs travels in the options instead (and the
  // transient-engine selection travels fully resolved the same way).
  opts.jobs = static_cast<std::size_t>(args.jobs);
  stamp_tran_options(&opts);

  shard::ShardOptions shopts;
  shopts.workers = static_cast<std::size_t>(args.workers);
  shopts.service = args.sopts;
  shopts.worker_timeout_s = args.worker_timeout;
  shopts.worker_command = self_executable(argv0);
  if (shopts.worker_command.empty()) {
    std::fprintf(stderr, "shard: cannot determine own executable path\n");
    return 1;
  }
  // Tracing: the coordinator mints the run's trace id, tags every routed
  // request, and collects worker span sets alongside the results.
  if (args.trace || !args.trace_json_path.empty()) {
    obs::set_tracing_enabled(true);
    shopts.trace_id = obs::mint_trace_id();
  }

  const shard::ShardReport report =
      args.yield_samples > 0
          ? shard::run_sharded_requests(t, opts,
                                        yield_requests(specs, args),
                                        shopts)
          : shard::run_sharded_batch(t, opts, specs, shopts);

  int failures = 0;
  int errors = 0;
  if (args.yield_samples > 0) {
    print_mixed_summary(spec_paths, specs, report.outcomes, &failures,
                        &errors);
  } else {
    print_summary(spec_paths, specs, report.outcomes, &failures, &errors);
  }

  if (args.show_stats) {
    std::printf("\nshard: %zu workers\n", report.workers.size());
    for (const shard::WorkerSummary& w : report.workers) {
      const service::ServiceStats& st = w.stats;
      std::printf(
          "  worker %zu: %zu requests routed, %llu hits, %llu misses, "
          "%llu dedup joins, %llu evictions — %s\n",
          w.shard, w.requests, static_cast<unsigned long long>(st.hits),
          static_cast<unsigned long long>(st.misses),
          static_cast<unsigned long long>(st.dedup_joins),
          static_cast<unsigned long long>(st.evictions),
          w.ok() ? "ok" : w.error.c_str());
    }
    std::puts("\nmetrics (merged across workers):");
    std::fputs(obs::metrics_table(report.merged_metrics).c_str(), stdout);
  }

  if (!report.infra_ok()) {
    for (const shard::WorkerSummary& w : report.workers) {
      if (!w.ok()) {
        std::fprintf(stderr, "shard: %s\n", w.error.c_str());
      }
    }
  }

  if (!export_batch_trace(args, shopts.trace_id, report.worker_spans)) {
    return 1;
  }
  if (!write_metrics_snapshot(args.metrics_path, report.merged_metrics)) {
    return 1;
  }
  return (failures > 0 || errors > 0 || parse_failed ||
          !report.infra_ok())
             ? 1
             : 0;
}

// SIGTERM/SIGINT must trigger a graceful drain; request_stop is
// async-signal-safe (one write to the server's self-pipe).
oasys::serve::Server* g_serve_server = nullptr;

void serve_signal_handler(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

// `oasys serve`: resident daemon behind a unix-domain socket.  Clients
// attach with `oasys batch --connect SOCKET`; output over there is
// byte-identical to a local batch.  Runs until SIGTERM/SIGINT, then
// drains gracefully and exits 0.
int run_serve_mode(int argc, char** argv, const char* argv0) {
  using namespace oasys;

  serve::ServeOptions sv;
  std::string tech_path;
  bool rules = true;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage();
      sv.socket_path = v;
    } else if (arg == "--workers") {
      long n = 0;
      const char* v = next();
      if (v == nullptr || !parse_count(v, 1, &n)) {
        std::fprintf(stderr, "--workers requires a positive integer\n");
        return usage();
      }
      sv.workers = static_cast<std::size_t>(n);
    } else if (arg == "--worker-timeout") {
      const char* v = next();
      if (v == nullptr || !parse_seconds(v, &sv.worker_timeout_s)) {
        std::fprintf(stderr,
                     "--worker-timeout requires a non-negative number of "
                     "seconds\n");
        return usage();
      }
    } else if (arg == "--shared-cache-size") {
      long n = 0;
      const char* v = next();
      if (v == nullptr || !parse_count(v, 0, &n)) {
        std::fprintf(stderr,
                     "--shared-cache-size requires a non-negative "
                     "integer\n");
        return usage();
      }
      sv.shared_cache_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--slow-ms") {
      const char* v = next();
      if (v == nullptr || !parse_seconds(v, &sv.slow_ms)) {
        std::fprintf(stderr,
                     "--slow-ms requires a non-negative number of "
                     "milliseconds\n");
        return usage();
      }
    } else if (arg == "--cache-size") {
      long n = 0;
      const char* v = next();
      if (v == nullptr || !parse_count(v, 0, &n)) {
        std::fprintf(stderr,
                     "--cache-size requires a non-negative integer\n");
        return usage();
      }
      sv.service.cache_capacity = static_cast<std::size_t>(n);
      if (n == 0) sv.service.cache_enabled = false;
    } else if (arg == "--no-cache") {
      sv.service.cache_enabled = false;
    } else if (arg == "--tech") {
      const char* v = next();
      if (v == nullptr) return usage();
      tech_path = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !apply_jobs(v)) return usage();
    } else if (arg == "--tran-mode") {
      const char* v = next();
      if (v == nullptr || !apply_tran_mode(v)) return usage();
    } else if (arg == "--tran-rtol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-rtol", v, true)) {
        return usage();
      }
    } else if (arg == "--tran-atol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-atol", v, false)) {
        return usage();
      }
    } else if (arg == "--no-rules") {
      rules = false;
    } else {
      std::fprintf(stderr, "unknown serve option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (sv.socket_path.empty()) {
    std::fprintf(stderr, "serve mode requires --socket PATH\n");
    return usage();
  }

  tech::Technology t;
  if (!load_technology(tech_path, &t)) return 1;

  synth::SynthOptions opts;
  opts.rules_enabled = rules;
  stamp_tran_options(&opts);
  sv.worker_command = self_executable(argv0);
  if (sv.worker_command.empty()) {
    std::fprintf(stderr, "serve: cannot determine own executable path\n");
    return 1;
  }

  try {
    serve::Server server(std::move(t), opts, std::move(sv));
    g_serve_server = &server;
    std::signal(SIGTERM, serve_signal_handler);
    std::signal(SIGINT, serve_signal_handler);
    std::printf("oasys serve: %zu workers on %s\n",
                server.options().workers,
                server.options().socket_path.c_str());
    std::fflush(stdout);
    const int rc = server.run();
    g_serve_server = nullptr;
    const serve::ServeStats st = server.stats();
    std::printf(
        "oasys serve: drained in %.3f s (%llu sessions, %llu batches, "
        "%llu shared-cache hits, %llu respawns)\n",
        st.drain_seconds, static_cast<unsigned long long>(st.sessions),
        static_cast<unsigned long long>(st.batches),
        static_cast<unsigned long long>(st.shared_cache_hits),
        static_cast<unsigned long long>(st.respawns));
    return rc;
  } catch (const std::exception& e) {
    g_serve_server = nullptr;
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

// `oasys stat`: live daemon introspection.  One empty kStatus frame over
// the admin path of the serve socket; the daemon answers before any
// kConfig handshake, so this works against a busy daemon without joining
// the request path.  Human table by default, canonical oasys.status.v1
// JSON with --json.
int run_stat_mode(int argc, char** argv) {
  using namespace oasys;

  std::string socket_path;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return usage();
      socket_path = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown stat option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "stat mode requires --connect SOCKET\n");
    return usage();
  }

  try {
    const serve::StatusReport st = serve::fetch_status(socket_path);
    if (json) {
      std::fputs((serve::status_json(st) + "\n").c_str(), stdout);
    } else {
      std::printf("oasys serve at %s\n", socket_path.c_str());
      std::fputs(serve::status_table(st).c_str(), stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

// `oasys yield`: synthesize one spec, then run deterministic Monte-Carlo
// mismatch analysis over the selected design.  Results are a pure
// function of (technology, spec, options, samples, seed) — bit-identical
// at every --jobs setting (pinned by the yield conformance tests).
int run_yield_mode(int argc, char** argv) {
  using namespace oasys;

  std::vector<std::string> operands;
  std::string tech_path;
  std::string metrics_path;
  bool rules = true;
  bool json = false;
  long samples = 200;
  long seed = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tech") {
      const char* v = next();
      if (v == nullptr) return usage();
      tech_path = v;
    } else if (arg == "--samples") {
      const char* v = next();
      if (v == nullptr || !parse_count(v, 1, &samples)) {
        std::fprintf(stderr, "--samples requires a positive integer\n");
        return usage();
      }
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !parse_count(v, 0, &seed)) {
        std::fprintf(stderr, "--seed requires a non-negative integer\n");
        return usage();
      }
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !apply_jobs(v)) return usage();
    } else if (arg == "--tran-mode") {
      const char* v = next();
      if (v == nullptr || !apply_tran_mode(v)) return usage();
    } else if (arg == "--tran-rtol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-rtol", v, true)) {
        return usage();
      }
    } else if (arg == "--tran-atol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-atol", v, false)) {
        return usage();
      }
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return usage();
      metrics_path = v;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-rules") {
      rules = false;
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "unknown yield option '%s'\n", arg.c_str());
      return usage();
    } else {
      operands.push_back(arg);
    }
  }
  if (operands.size() != 1) {
    std::fprintf(stderr, "yield mode needs exactly one spec file\n");
    return usage();
  }

  tech::Technology t;
  if (!load_technology(tech_path, &t)) return 1;

  const core::SpecParseResult sr =
      core::load_opamp_spec_file(operands[0]);
  if (!sr.ok()) {
    std::fprintf(stderr, "spec file errors:\n%s",
                 sr.log.to_string().c_str());
    return 1;
  }

  synth::SynthOptions opts;
  opts.rules_enabled = rules;
  stamp_tran_options(&opts);
  yield::YieldParams params;
  params.samples = static_cast<int>(samples);
  params.seed = static_cast<std::uint64_t>(seed);

  const yield::YieldResult r = yield::run_yield(t, sr.spec, params, opts);

  auto done = [&](int code) {
    if (!write_metrics(metrics_path)) return 1;
    return code;
  };

  if (json) {
    std::fputs((yield::yield_result_json(r) + "\n").c_str(), stdout);
    return done(r.ok ? 0 : 1);
  }

  if (!r.ok) {
    std::printf("yield analysis failed: %s\n", r.error.c_str());
    return done(1);
  }
  const synth::OpAmpDesign& best = *r.synthesis.best();
  std::printf("spec %s: style %s, %d samples (seed %llu), %d converged\n",
              r.synthesis.spec.name.c_str(), best.style_name().c_str(),
              r.samples_requested,
              static_cast<unsigned long long>(r.seed),
              r.samples_converged);
  util::Table table({"metric", "bound", "pass", "mean", "sigma", "p05",
                     "p50", "p95"});
  for (const yield::MetricStats& m : r.metrics) {
    table.add_row(
        {m.name,
         m.constrained ? util::format("%.6g", m.bound) : "-",
         m.constrained
             ? util::format("%llu/%d",
                            static_cast<unsigned long long>(m.pass),
                            r.samples_requested)
             : "-",
         util::format("%.6g", m.mean), util::format("%.3g", m.sigma),
         util::format("%.6g", m.p05), util::format("%.6g", m.p50),
         util::format("%.6g", m.p95)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("yield: %.1f%% (%llu/%d samples pass every constrained "
              "metric)\n",
              r.yield * 100.0,
              static_cast<unsigned long long>(r.pass_count),
              r.samples_requested);
  return done(0);
}

// ---- tolerance-pinned golden suite (oasys.tol.v1) --------------------------
//
// `oasys golden --tol` is the regeneration path for tests/golden/tol/:
// each document pins one measurement subject (an op-amp paper case, the
// built-in comparator example, the built-in SAR converter) under the
// adaptive transient, together with the per-metric tolerance envelopes a
// comparison must satisfy.  The envelopes live *in the golden file* so
// the comparator (tests/tolcmp.h) needs no out-of-band configuration and
// tightening a tolerance is a reviewed golden-file diff.

// One metric value plus its acceptance envelope: |cand - golden| must be
// <= abs + rel * |golden|.  abs == rel == 0 pins the value exactly
// (integer and boolean metrics).
struct TolMetric {
  std::string name;
  double value = 0.0;
  double abs = 0.0;
  double rel = 0.0;
};

// %.17g round-trips a double exactly; non-finite values are carried as
// the strings "nan" / "inf" / "-inf" (JSON has no literals for them).
std::string tol_json_number(double v) {
  if (v != v) return "\"nan\"";
  if (v == std::numeric_limits<double>::infinity()) return "\"inf\"";
  if (v == -std::numeric_limits<double>::infinity()) return "\"-inf\"";
  return oasys::util::format("%.17g", v);
}

std::string tol_document(const std::string& subject,
                         const std::string& tech_tag,
                         const std::vector<TolMetric>& metrics) {
  using oasys::util::format;
  const oasys::sim::TranMode mode =
      oasys::sim::resolve_tran_mode(oasys::sim::TranMode::kDefault);
  const oasys::sim::TranTolerance tol =
      oasys::sim::tran_tolerance_default();
  std::string out = "{\n  \"schema\": \"oasys.tol.v1\",\n";
  out += format("  \"subject\": \"%s\",\n", subject.c_str());
  out += format("  \"tech\": \"%s\",\n", tech_tag.c_str());
  out += format("  \"tran\": {\"mode\": \"%s\", \"rtol\": %s, \"atol\": %s},\n",
                oasys::sim::to_string(mode),
                tol_json_number(tol.rtol).c_str(),
                tol_json_number(tol.atol).c_str());
  out += "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += format("    \"%s\": %s%s\n", metrics[i].name.c_str(),
                  tol_json_number(metrics[i].value).c_str(),
                  i + 1 < metrics.size() ? "," : "");
  }
  out += "  },\n  \"tol\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += format("    \"%s\": {\"abs\": %s, \"rel\": %s}%s\n",
                  metrics[i].name.c_str(),
                  tol_json_number(metrics[i].abs).c_str(),
                  tol_json_number(metrics[i].rel).c_str(),
                  i + 1 < metrics.size() ? "," : "");
  }
  out += "  }\n}\n";
  return out;
}

// Envelope presets.  Transient-derived metrics (slew, delays) get a
// generous relative band: adaptive stepping is bit-deterministic on one
// build, but the envelopes are what let the suite pass across compilers
// and architectures.  AC/OP-derived metrics barely move and stay tight;
// integer and boolean metrics are exact.
constexpr double kTolTranRel = 2e-2;
constexpr double kTolTranAbs = 1e-12;
constexpr double kTolSmallRel = 1e-6;
constexpr double kTolSmallAbs = 1e-9;

TolMetric tran_metric(const std::string& name, double v) {
  return {name, v, kTolTranAbs, kTolTranRel};
}
TolMetric tight_metric(const std::string& name, double v) {
  return {name, v, kTolSmallAbs, kTolSmallRel};
}
TolMetric exact_metric(const std::string& name, double v) {
  return {name, v, 0.0, 0.0};
}

// The built-in comparator subject: the example spec from
// examples/comparator_design.cpp, which exercises the step-rejection path
// (sharp input edges) of the adaptive integrator.
oasys::synth::ComparatorSpec tol_comparator_spec() {
  oasys::synth::ComparatorSpec spec;
  spec.name = "example";
  spec.resolution = oasys::util::mv(10.0);
  spec.tprop_max = oasys::util::us(2.0);
  spec.cload = oasys::util::pf(2.0);
  spec.out_high = 1.5;
  spec.out_low = -0.5;
  spec.icmr_lo = -1.0;
  spec.icmr_hi = 0.5;
  return spec;
}

// The built-in SAR subject (the nominal converter from the SAR tests).
oasys::synth::SarAdcSpec tol_sar_spec() {
  oasys::synth::SarAdcSpec spec;
  spec.name = "adc8";
  spec.bits = 8;
  spec.sample_rate = oasys::util::khz(20.0);
  spec.vin_lo = -2.0;
  spec.vin_hi = 2.0;
  return spec;
}

// Generates the full tolerance-pinned suite into `out_dir` (or stdout
// when empty).  Subjects: every paper op-amp test case (measured through
// the transient slew testbench), the built-in comparator, the built-in
// SAR converter.  Returns 1 on any synthesis/measurement/write failure.
int run_golden_tol(const oasys::tech::Technology& t,
                   const std::string& tech_tag, const std::string& out_dir,
                   const oasys::synth::SynthOptions& opts) {
  using namespace oasys;

  struct Doc {
    std::string subject;
    std::vector<TolMetric> metrics;
  };
  std::vector<Doc> docs;

  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    const synth::SynthesisResult r = synth::synthesize_opamp(t, spec, opts);
    if (!r.success()) {
      std::fprintf(stderr, "golden --tol: %s: %s\n", spec.name.c_str(),
                   synth::failure_brief(r).c_str());
      return 1;
    }
    // ICMR and noise sweeps do not touch the transient engine and only
    // slow the suite down; slew is the transient-bearing metric.
    synth::MeasureOptions mo;
    mo.measure_icmr = false;
    mo.measure_noise = false;
    const synth::MeasuredOpAmp m = synth::measure_opamp(*r.best(), t, mo);
    if (!m.ok) {
      std::fprintf(stderr, "golden --tol: %s: %s\n", spec.name.c_str(),
                   m.error.c_str());
      return 1;
    }
    docs.push_back(
        {"opamp_" + spec.name,
         {tran_metric("slew", m.perf.slew),
          tight_metric("gain_db", m.perf.gain_db),
          tight_metric("gbw", m.perf.gbw),
          tight_metric("pm_deg", m.perf.pm_deg),
          tight_metric("swing_pos", m.perf.swing_pos),
          tight_metric("swing_neg", m.perf.swing_neg),
          tight_metric("offset", m.perf.offset),
          tight_metric("power", m.perf.power)}});
  }

  {
    const synth::ComparatorSpec spec = tol_comparator_spec();
    const synth::ComparatorDesign d = synth::design_comparator(t, spec, opts);
    if (!d.feasible) {
      std::fprintf(stderr, "golden --tol: comparator %s infeasible\n",
                   spec.name.c_str());
      return 1;
    }
    const synth::MeasuredComparator m = synth::measure_comparator(d, t);
    if (!m.ok) {
      std::fprintf(stderr, "golden --tol: comparator %s: %s\n",
                   spec.name.c_str(), m.error.c_str());
      return 1;
    }
    docs.push_back({"comparator_" + spec.name,
                    {tran_metric("delay_rising", m.delay_rising),
                     tran_metric("delay_falling", m.delay_falling),
                     tight_metric("out_high", m.out_high),
                     tight_metric("out_low", m.out_low),
                     tight_metric("offset", m.offset),
                     tight_metric("power", m.power)}});
  }

  {
    const synth::SarAdcSpec spec = tol_sar_spec();
    const synth::SarAdcDesign d = synth::design_sar_adc(t, spec, opts);
    if (!d.feasible) {
      std::fprintf(stderr, "golden --tol: sar %s infeasible\n",
                   spec.name.c_str());
      return 1;
    }
    const synth::MeasuredSarAdc m = synth::measure_sar_adc(d, t);
    if (!m.ok) {
      std::fprintf(stderr, "golden --tol: sar %s: %s\n", spec.name.c_str(),
                   m.error.c_str());
      return 1;
    }
    docs.push_back(
        {"sar_" + spec.name,
         {exact_metric("max_code_error_lsb",
                       static_cast<double>(m.max_code_error_lsb)),
          exact_metric("monotonic", m.monotonic ? 1.0 : 0.0),
          tran_metric("comparator_tprop", m.comparator_tprop),
          exact_metric("timing_met", m.timing_met ? 1.0 : 0.0)}});
  }

  bool write_failed = false;
  for (const Doc& doc : docs) {
    const std::string json = tol_document(doc.subject, tech_tag, doc.metrics);
    if (out_dir.empty()) {
      std::fputs(json.c_str(), stdout);
      continue;
    }
    const std::string path =
        out_dir + "/tol_" + tech_tag + "_" + doc.subject + ".json";
    std::ofstream out(path);
    if (out) out << json;
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
      write_failed = true;
      continue;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return write_failed ? 1 : 0;
}

// `oasys golden`: canonical result JSON (oasys.result.v1) per spec.  With
// --dir, writes DIR/<tech>_<spec>.json per spec (the regeneration path
// for tests/golden/); otherwise the documents stream to stdout.
int run_golden_mode(int argc, char** argv) {
  using namespace oasys;

  std::vector<std::string> operands;
  std::string tech_path;
  std::string out_dir;
  bool rules = true;
  bool tol = false;
  bool tran_mode_given = false;
  long yield_samples = 0;
  long yield_seed = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tech") {
      const char* v = next();
      if (v == nullptr) return usage();
      tech_path = v;
    } else if (arg == "--dir") {
      const char* v = next();
      if (v == nullptr) return usage();
      out_dir = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !apply_jobs(v)) return usage();
    } else if (arg == "--tran-mode") {
      const char* v = next();
      if (v == nullptr || !apply_tran_mode(v)) return usage();
      tran_mode_given = true;
    } else if (arg == "--tran-rtol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-rtol", v, true)) {
        return usage();
      }
    } else if (arg == "--tran-atol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-atol", v, false)) {
        return usage();
      }
    } else if (arg == "--tol") {
      tol = true;
    } else if (arg == "--yield-samples") {
      const char* v = next();
      if (v == nullptr || !parse_count(v, 1, &yield_samples)) {
        std::fprintf(stderr,
                     "--yield-samples requires a positive integer\n");
        return usage();
      }
    } else if (arg == "--yield-seed") {
      const char* v = next();
      if (v == nullptr || !parse_count(v, 0, &yield_seed)) {
        std::fprintf(stderr,
                     "--yield-seed requires a non-negative integer\n");
        return usage();
      }
    } else if (arg == "--no-rules") {
      rules = false;
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "unknown golden option '%s'\n", arg.c_str());
      return usage();
    } else {
      operands.push_back(arg);
    }
  }
  if (operands.empty() && !tol) {
    std::fprintf(stderr,
                 "golden mode needs at least one spec file or directory\n");
    return usage();
  }

  tech::Technology t;
  if (!load_technology(tech_path, &t)) return 1;
  const std::string tech_tag =
      tech_path.empty()
          ? "builtin"
          : std::filesystem::path(tech_path).stem().string();

  // The tolerance suite exists to pin the adaptive engine; regenerating
  // it under fixed stepping would produce misleading goldens, so --tol
  // selects adaptive unless a mode was given explicitly.
  if (tol && !tran_mode_given) {
    sim::set_tran_mode_default(sim::TranMode::kAdaptive);
  }

  if (tol) {
    synth::SynthOptions opts;
    opts.rules_enabled = rules;
    stamp_tran_options(&opts);
    return run_golden_tol(t, tech_tag, out_dir, opts);
  }

  std::vector<std::string> spec_paths;
  std::vector<core::OpAmpSpec> specs;
  bool parse_failed = false;
  if (!load_specs(operands, &spec_paths, &specs, &parse_failed)) return 1;

  synth::SynthOptions opts;
  opts.rules_enabled = rules;
  stamp_tran_options(&opts);
  bool write_failed = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::string json;
    if (yield_samples > 0) {
      yield::YieldParams params;
      params.samples = static_cast<int>(yield_samples);
      params.seed = static_cast<std::uint64_t>(yield_seed);
      json = yield::yield_result_json(
                 yield::run_yield(t, specs[i], params, opts)) +
             "\n";
    } else {
      json = synth::result_json(
                 synth::synthesize_opamp(t, specs[i], opts)) +
             "\n";
    }
    if (out_dir.empty()) {
      std::fputs(json.c_str(), stdout);
      continue;
    }
    const std::string name =
        tech_tag + "_" +
        std::filesystem::path(spec_paths[i]).stem().string() +
        (yield_samples > 0 ? "_yield.json" : ".json");
    const std::string path = out_dir + "/" + name;
    std::ofstream out(path);
    if (out) out << json;
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
      write_failed = true;
      continue;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return (parse_failed || write_failed) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oasys;

  if (argc > 1 && std::strcmp(argv[1], "batch") == 0) {
    return run_batch_mode(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "shard") == 0) {
    return run_shard_mode(argc - 2, argv + 2, argv[0]);
  }
  // One worker loop; `--session` is accepted and changes nothing.
  if (argc > 1 && std::strcmp(argv[1], "shard-worker") == 0) {
    return shard::worker_session_main(STDIN_FILENO, STDOUT_FILENO);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return run_serve_mode(argc - 2, argv + 2, argv[0]);
  }
  if (argc > 1 && std::strcmp(argv[1], "stat") == 0) {
    return run_stat_mode(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "yield") == 0) {
    return run_yield_mode(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "golden") == 0) {
    return run_golden_mode(argc - 2, argv + 2);
  }

  std::string spec_path;
  std::string tech_path;
  std::string export_path;
  std::string metrics_path;
  bool verify = false;
  bool trace = false;
  bool rules = true;
  bool templates = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--spec") {
      const char* v = next();
      if (v == nullptr) return usage();
      spec_path = v;
    } else if (arg == "--tech") {
      const char* v = next();
      if (v == nullptr) return usage();
      tech_path = v;
    } else if (arg == "--export") {
      const char* v = next();
      if (v == nullptr) return usage();
      export_path = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !apply_jobs(v)) return usage();
    } else if (arg == "--tran-mode") {
      const char* v = next();
      if (v == nullptr || !apply_tran_mode(v)) return usage();
    } else if (arg == "--tran-rtol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-rtol", v, true)) {
        return usage();
      }
    } else if (arg == "--tran-atol") {
      const char* v = next();
      if (v == nullptr || !apply_tran_tolerance("--tran-atol", v, false)) {
        return usage();
      }
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return usage();
      metrics_path = v;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--no-rules") {
      rules = false;
    } else if (arg == "--templates") {
      templates = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }

  if (templates) {
    for (const auto& spec : synth::paper_test_cases()) {
      std::printf("# ---- paper test case %s ----\n%s\n",
                  spec.name.c_str(), core::to_spec_text(spec).c_str());
    }
    return 0;
  }
  if (spec_path.empty()) return usage();

  tech::Technology t;
  if (!load_technology(tech_path, &t)) return 1;

  const core::SpecParseResult sr = core::load_opamp_spec_file(spec_path);
  if (!sr.ok()) {
    std::fprintf(stderr, "spec file errors:\n%s",
                 sr.log.to_string().c_str());
    return 1;
  }

  synth::SynthOptions opts;
  opts.rules_enabled = rules;
  stamp_tran_options(&opts);
  // --trace turns on the process-wide span collector: the plan narrative
  // and the span timeline below are two renderings of one event stream.
  if (trace) obs::set_tracing_enabled(true);
  const synth::SynthesisResult result =
      synth::synthesize_opamp(t, sr.spec, opts);

  if (trace) {
    std::fputs(synth::synthesis_report(result).c_str(), stdout);
  } else {
    std::fputs(sr.spec.to_string().c_str(), stdout);
    std::puts("style selection:");
    std::fputs(result.selection.summary.c_str(), stdout);
    if (result.success()) {
      std::fputs(synth::design_summary(*result.best()).c_str(), stdout);
      std::fputs(synth::device_table(*result.best()).c_str(), stdout);
    }
  }
  // Every post-synthesis exit prints the span timeline last, so it covers
  // verification too, and writes the metrics registry (a failed run's
  // counters are exactly what a failure investigation wants to see).
  auto done = [&](int code) {
    if (trace) {
      std::puts("\nspan timeline:");
      std::fputs(obs::trace_text(obs::drain_global_trace()).c_str(), stdout);
    }
    if (!write_metrics(metrics_path)) return 1;
    return code;
  };

  // Scriptability contract: "no feasible style" must be distinguishable
  // from success without scraping stdout (pinned by ctest).
  if (!result.success()) {
    std::puts("no feasible design.");
    return done(1);
  }

  const synth::OpAmpDesign& best = *result.best();
  if (verify) {
    const synth::MeasuredOpAmp m = synth::measure_opamp(best, t);
    if (!m.ok) {
      std::fprintf(stderr, "verification failed: %s\n", m.error.c_str());
      return done(1);
    }
    std::puts("\nspec vs predicted vs simulated:");
    std::fputs(synth::comparison_table(best, &m).c_str(), stdout);
  }
  if (!export_path.empty()) {
    ckt::SpiceWriterOptions wo;
    wo.title = "oasys synthesized op amp (" + best.style_name() + ")";
    std::ofstream out(export_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", export_path.c_str());
      return done(1);
    }
    out << ckt::to_spice_deck(synth::build_standalone_opamp(best, t), t,
                              wo);
    std::printf("\nSPICE deck written to %s\n", export_path.c_str());
  }
  return done(0);
}
