// Deterministic mutation fuzz harness for the two parsers of external
// input: spec files (core::parse_opamp_spec) and technology files
// (tech::parse_tech).
//
// Their contract is that a file either yields an error diagnostic or
// parses into a struct whose every numeric field is finite and whose
// validate() is clean — never a crash, and never a NaN or inf smuggled
// into synthesis.  Starting from the shipped specs/*.spec and tech/*.tech
// this harness applies seeded line drops, duplications and swaps, byte
// flips, truncations, and numeric-token replacements drawn from values
// strtod accepts but a design cannot use (util::RngStream, so every run —
// including under ASan/UBSan — replays the identical mutants).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/spec_parser.h"
#include "tech/tech_parser.h"
#include "util/rng.h"
#include "util/text.h"

namespace {

using namespace oasys;

// Sorted (name, text) of every file in `dir` with extension `ext`.
std::vector<std::pair<std::string, std::string>> corpus(const char* dir,
                                                        const char* ext) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(OASYS_SOURCE_DIR) / dir)) {
    if (entry.path().extension() != ext) continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    files.emplace_back(entry.path().filename().string(), buf.str());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Tokens strtod reads as numbers (or nearly) that no file may deliver.
constexpr const char* kHostileNumbers[] = {"nan", "inf",    "-inf", "1e999",
                                           "-0",  "1e-320", "",     "1.5x"};

std::size_t pick(util::RngStream& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_u64() % n);
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

// Applies one to three seeded mutations to `text`.
std::string mutate(const std::string& text, util::RngStream& rng) {
  std::string out = text;
  const int count = 1 + static_cast<int>(pick(rng, 3));
  for (int m = 0; m < count; ++m) {
    std::vector<std::string> lines = util::split_lines(out);
    if (lines.empty() || out.empty()) break;
    switch (pick(rng, 6)) {
      case 0:  // drop a line
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(pick(rng, lines.size())));
        out = join_lines(lines);
        break;
      case 1: {  // duplicate a line
        const std::size_t i = pick(rng, lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
        out = join_lines(lines);
        break;
      }
      case 2:  // swap two lines
        std::swap(lines[pick(rng, lines.size())],
                  lines[pick(rng, lines.size())]);
        out = join_lines(lines);
        break;
      case 3: {  // flip a byte
        const std::size_t at = pick(rng, out.size());
        out[at] = static_cast<char>(static_cast<std::uint8_t>(out[at]) ^
                                    (1 + pick(rng, 255)));
        break;
      }
      case 4:  // truncate
        out.resize(pick(rng, out.size()));
        break;
      default: {  // replace a numeric value token
        std::vector<std::size_t> numeric;
        for (std::size_t i = 0; i < lines.size(); ++i) {
          const auto tokens = util::split(lines[i]);
          if (tokens.size() == 2 && util::parse_double(tokens[1])) {
            numeric.push_back(i);
          }
        }
        if (numeric.empty()) break;
        const std::size_t i = numeric[pick(rng, numeric.size())];
        lines[i] = util::split(lines[i])[0] + " " +
                   kHostileNumbers[pick(rng, std::size(kHostileNumbers))];
        out = join_lines(lines);
        break;
      }
    }
  }
  return out;
}

bool all_finite(std::initializer_list<double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

bool spec_finite(const core::OpAmpSpec& s) {
  return all_finite({s.gain_min_db, s.gbw_min, s.pm_min_deg, s.slew_min,
                     s.cload, s.swing_pos, s.swing_neg, s.offset_max,
                     s.icmr_lo, s.icmr_hi, s.power_max, s.area_max,
                     s.cmrr_min_db, s.psrr_min_db, s.noise_max});
}

bool mos_finite(const tech::MosParams& p) {
  return all_finite({p.vt0, p.kp, p.gamma, p.phi, p.lambda_l, p.cgdo, p.cgso,
                     p.cj, p.cjsw, p.pb, p.mj, p.mjsw, p.mobility, p.kf, p.af,
                     p.avt});
}

bool tech_finite(const tech::Technology& t) {
  return all_finite({t.vdd, t.vss, t.lmin, t.wmin, t.drain_ext, t.tox,
                     t.cox}) &&
         mos_finite(t.nmos) && mos_finite(t.pmos);
}

constexpr int kIterations = 2000;

}  // namespace

TEST(ParserFuzz, ShippedFilesParseCleanly) {
  const auto specs = corpus("specs", ".spec");
  const auto techs = corpus("tech", ".tech");
  ASSERT_FALSE(specs.empty());
  ASSERT_FALSE(techs.empty());
  for (const auto& [name, text] : specs) {
    EXPECT_TRUE(core::parse_opamp_spec(text).ok()) << name;
  }
  for (const auto& [name, text] : techs) {
    EXPECT_TRUE(tech::parse_tech(text).ok()) << name;
  }
}

// Every (file, iteration) pair gets its own stream, so a failure's
// stream id replays the exact mutant.
TEST(ParserFuzz, SpecMutantsErrorOrParseFinite) {
  std::uint64_t stream_id = 0;
  int parsed = 0, rejected = 0;
  for (const auto& [name, base] : corpus("specs", ".spec")) {
    for (int iter = 0; iter < kIterations; ++iter, ++stream_id) {
      util::RngStream rng(0x59ecu, stream_id);
      const std::string text = mutate(base, rng);
      const core::SpecParseResult r = core::parse_opamp_spec(text);
      if (r.log.has_errors()) {
        ++rejected;
        continue;
      }
      ++parsed;
      EXPECT_TRUE(spec_finite(r.spec))
          << name << " stream " << stream_id << ":\n" << text;
      EXPECT_FALSE(r.spec.validate().has_errors())
          << name << " stream " << stream_id << ":\n" << text;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ParserFuzz, TechMutantsErrorOrParseFinite) {
  std::uint64_t stream_id = 1u << 20;
  int parsed = 0, rejected = 0;
  for (const auto& [name, base] : corpus("tech", ".tech")) {
    for (int iter = 0; iter < kIterations; ++iter, ++stream_id) {
      util::RngStream rng(0x7ec4u, stream_id);
      const std::string text = mutate(base, rng);
      const tech::ParseResult r = tech::parse_tech(text);
      if (r.log.has_errors()) {
        ++rejected;
        continue;
      }
      ++parsed;
      EXPECT_TRUE(tech_finite(r.technology))
          << name << " stream " << stream_id << ":\n" << text;
      EXPECT_FALSE(r.technology.validate().has_errors())
          << name << " stream " << stream_id << ":\n" << text;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}
