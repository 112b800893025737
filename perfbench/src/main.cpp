// perfbench — the OASYS end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--source-digest HEX] [--out-dir DIR]
//             [--corrupt-reference]
//
// Runs one workload (verify_stream, yield_mc, serve_mixed, shard_oneshot)
// and prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  A record of the run
// with its provenance goes to DIR/records/, and a traced run's spans to
// DIR/traces/ as a Chrome trace (open it in Perfetto).
//
// `perfbench shard-worker [--session]` is the worker mode the shard
// coordinator and the serve daemon spawn.
//
// Exit codes: 0 every answer matched its reference, 1 a mismatch or
// failure, 2 usage error or a run that could not be set up.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "exec/executor.h"
#include "shard/worker.h"
#include "util/text.h"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--git-sha SHA] [--source-digest HEX]\n"
               "                 [--out-dir DIR] [--corrupt-reference]\n",
               why);
  return 2;
}

std::string self_executable() {
  std::error_code ec;
  const std::filesystem::path p = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string() : p.string();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += util::format("\\u%04x", ch);
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += util::format("%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                        json_string(metrics[i].name).c_str(), metrics[i].value,
                        json_string(metrics[i].unit).c_str());
  }
  return out + "}";
}

bool write_file(const std::string& path, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

bool parse_u64(const char* v, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-') return false;
  *out = n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "shard-worker") == 0) {
    if (argc > 2 && std::strcmp(argv[2], "--session") == 0) {
      return oasys::shard::worker_session_main(STDIN_FILENO, STDOUT_FILENO);
    }
    return oasys::shard::worker_main(STDIN_FILENO, STDOUT_FILENO);
  }

  Options opt;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (v == nullptr) return usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed" && parse_u64(v, &n)) {
      opt.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(v, &n) && n >= 1 && n <= 600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(v, &n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else if (arg == "--git-sha") {
      opt.git_sha = v;
    } else if (arg == "--source-digest") {
      opt.source_digest = v;
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage(("bad option or value: " + arg + " " + v).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  opt.self_exe = self_executable();
  if (opt.self_exe.empty()) return usage("cannot resolve /proc/self/exe");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool release = build_type == "Release";
  if (!release) {
    std::fprintf(stderr, "WARNING: build type is '%s', not Release; timings are "
                         "not comparable with Release records\n", build_type.c_str());
  }

  RunResult r;
  try {
    r = run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }

  const std::string tag = util::format(
      "%s-seed%llu-trace%d", opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::vector<std::pair<std::string, std::string>> prov = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", util::format("%g", opt.seconds)},
      {"trace", opt.trace ? "1" : "0"},
      {"build_type", build_type},
      {"release_build", release ? "true" : "false"},
      {"compiler", PERFBENCH_COMPILER},
      {"nproc", std::to_string(oasys::exec::hardware_jobs())},
      {"git_sha", opt.git_sha},
      {"source_digest", opt.source_digest},
  };
  prov.insert(prov.end(), r.notes.begin(), r.notes.end());
  if (opt.trace) {
    const std::string trace_path = opt.out_dir + "/traces/" + tag + ".trace.json";
    if (write_file(trace_path, r.trace_json)) prov.emplace_back("trace_file", trace_path);
  }

  std::string prov_json = "{";
  for (std::size_t i = 0; i < prov.size(); ++i) {
    prov_json += (i ? ", " : "") + json_string(prov[i].first) + ": " +
                 json_string(prov[i].second);
  }
  prov_json += "}";
  const std::string result = util::format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}",
      r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics_json(r.metrics).c_str());
  write_file(opt.out_dir + "/records/" + tag + ".json",
             "{\"provenance\": " + prov_json + ",\n \"result\": " + result + "}\n");

  std::fputs(r.report.c_str(), stdout);
  std::printf("provenance: %s\n", prov_json.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
