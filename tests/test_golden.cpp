// Golden regression suite: canonical result JSON pinned byte-for-byte.
//
// The corpus is every shipped spec (specs/*.spec) under every shipped
// technology file (tech/*.tech).  Each synthesis result renders through
// synth::result_json (oasys.result.v1: %.17g doubles, fixed field order,
// no timing, no prose) and must equal the checked-in golden exactly — a
// single changed bit anywhere in the sized schematic, the selection, or
// the predicted performance fails the suite.
//
// When a change is *intentional* (a designer improvement that moves the
// numbers), regenerate and commit the goldens:
//
//   build/tools/oasys golden specs --tech tech/cmos5.tech --dir tests/golden
//   build/tools/oasys golden specs --tech tech/cmos3.tech --dir tests/golden
//
// and explain the delta in the commit message.  A diff you cannot explain
// is a regression, not a refresh.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/spec_parser.h"
#include "synth/oasys.h"
#include "synth/result_json.h"
#include "tech/tech_parser.h"
#include "yield/yield.h"

namespace oasys {
namespace {

// The stems are held inline, not as pointers: gtest prints an unprintable
// parameter's raw bytes into the listed test name, and pointer bytes change
// with every address-space layout, so the names would differ run to run.
struct GoldenCase {
  char tech[8];  // stem under tech/
  char spec[8];  // stem under specs/
};

std::string source_path(const std::string& rel) {
  return std::string(OASYS_SOURCE_DIR) + "/" + rel;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, ResultJsonMatchesGoldenByteForByte) {
  const GoldenCase& c = GetParam();

  const tech::ParseResult tr = tech::load_tech_file(
      source_path(std::string("tech/") + c.tech + ".tech"));
  ASSERT_TRUE(tr.ok()) << tr.log.to_string();
  const core::SpecParseResult sr = core::load_opamp_spec_file(
      source_path(std::string("specs/") + c.spec + ".spec"));
  ASSERT_TRUE(sr.ok()) << sr.log.to_string();

  const synth::SynthesisResult result =
      synth::synthesize_opamp(tr.technology, sr.spec, {});
  const std::string rendered = synth::result_json(result) + "\n";

  const std::string golden_rel = std::string("tests/golden/") + c.tech +
                                 "_" + c.spec + ".json";
  std::string golden;
  ASSERT_TRUE(read_file(source_path(golden_rel), &golden))
      << "missing golden " << golden_rel
      << " — regenerate with: oasys golden specs/" << c.spec
      << ".spec --tech tech/" << c.tech << ".tech --dir tests/golden";

  EXPECT_EQ(rendered, golden)
      << "synthesis output drifted from " << golden_rel
      << ".  If the change is intentional, regenerate with `oasys golden "
         "specs --tech tech/"
      << c.tech << ".tech --dir tests/golden` and commit the diff.";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenTest,
    ::testing::Values(GoldenCase{"cmos5", "caseA"},
                      GoldenCase{"cmos5", "caseB"},
                      GoldenCase{"cmos5", "caseC"},
                      GoldenCase{"cmos3", "caseA"},
                      GoldenCase{"cmos3", "caseB"},
                      GoldenCase{"cmos3", "caseC"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.tech) + "_" + info.param.spec;
    });

// Yield goldens: the full Monte-Carlo analysis pinned byte-for-byte at a
// fixed (samples, seed).  A drift here means the RNG streams, the sample
// measurement bench, or the statistics reduction changed.  Regenerate
// intentional changes with:
//
//   build/tools/oasys golden specs/caseA.spec specs/caseB.spec
//       --tech tech/cmos5.tech --yield-samples 16 --yield-seed 1
//       --dir tests/golden
//
// (one command line; wrapped here for width)
class YieldGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(YieldGoldenTest, YieldJsonMatchesGoldenByteForByte) {
  const GoldenCase& c = GetParam();

  const tech::ParseResult tr = tech::load_tech_file(
      source_path(std::string("tech/") + c.tech + ".tech"));
  ASSERT_TRUE(tr.ok()) << tr.log.to_string();
  const core::SpecParseResult sr = core::load_opamp_spec_file(
      source_path(std::string("specs/") + c.spec + ".spec"));
  ASSERT_TRUE(sr.ok()) << sr.log.to_string();

  yield::YieldParams params;
  params.samples = 16;
  params.seed = 1;
  const yield::YieldResult result =
      yield::run_yield(tr.technology, sr.spec, params);
  const std::string rendered = yield::yield_result_json(result) + "\n";

  const std::string golden_rel = std::string("tests/golden/") + c.tech +
                                 "_" + c.spec + "_yield.json";
  std::string golden;
  ASSERT_TRUE(read_file(source_path(golden_rel), &golden))
      << "missing golden " << golden_rel;

  EXPECT_EQ(rendered, golden)
      << "yield output drifted from " << golden_rel
      << ".  If the change is intentional, regenerate with `oasys golden "
         "specs/"
      << c.spec << ".spec --tech tech/" << c.tech
      << ".tech --yield-samples 16 --yield-seed 1 --dir tests/golden` "
         "and commit the diff.";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, YieldGoldenTest,
    ::testing::Values(GoldenCase{"cmos5", "caseA"},
                      GoldenCase{"cmos5", "caseB"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.tech) + "_" + info.param.spec;
    });

// The rendering itself must be stable against representation quirks the
// goldens cannot witness directly.
TEST(ResultJson, EscapesAndNullsAreWellFormed) {
  synth::SynthesisResult r;
  r.spec.name = "quote\" backslash\\ control\x01";
  const std::string json = synth::result_json(r);
  EXPECT_NE(json.find("quote\\\" backslash\\\\ control\\u0001"),
            std::string::npos);
  // No selected style renders as JSON null, not as an empty string.
  EXPECT_NE(json.find("\"best_index\": null"), std::string::npos);
}

}  // namespace
}  // namespace oasys
