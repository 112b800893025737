#include <gtest/gtest.h>

#include "core/spec_parser.h"
#include "synth/test_cases.h"
#include "util/units.h"

namespace oasys::core {
namespace {

TEST(SpecParser, ParsesAllFieldsWithUnits) {
  const char* text = R"(
# comment
name       demo
gain_db    70
gbw_mhz    2.5
pm_deg     45
slew_v_us  2
cload_pf   10
swing_pos_v 3.5
swing_neg_v 3
offset_mv  2
icmr_lo_v  -2
icmr_hi_v  2
power_mw   10
area_um2   50000
cmrr_db    60
)";
  const SpecParseResult r = parse_opamp_spec(text);
  ASSERT_TRUE(r.ok()) << r.log.to_string();
  EXPECT_EQ(r.spec.name, "demo");
  EXPECT_DOUBLE_EQ(r.spec.gain_min_db, 70.0);
  EXPECT_DOUBLE_EQ(r.spec.gbw_min, 2.5e6);
  EXPECT_DOUBLE_EQ(r.spec.slew_min, 2e6);
  EXPECT_DOUBLE_EQ(r.spec.cload, 10e-12);
  EXPECT_DOUBLE_EQ(r.spec.swing_pos, 3.5);
  EXPECT_DOUBLE_EQ(r.spec.offset_max, 2e-3);
  EXPECT_DOUBLE_EQ(r.spec.icmr_lo, -2.0);
  EXPECT_DOUBLE_EQ(r.spec.power_max, 10e-3);
  EXPECT_NEAR(r.spec.area_max, 50000e-12, 1e-18);
  EXPECT_DOUBLE_EQ(r.spec.cmrr_min_db, 60.0);
}

TEST(SpecParser, RoundTripsPaperCases) {
  for (const OpAmpSpec& spec : synth::paper_test_cases()) {
    const std::string text = to_spec_text(spec);
    const SpecParseResult r = parse_opamp_spec(text);
    ASSERT_TRUE(r.ok()) << spec.name << ": " << r.log.to_string();
    EXPECT_EQ(r.spec.name, spec.name);
    EXPECT_NEAR(r.spec.gain_min_db, spec.gain_min_db, 1e-9);
    EXPECT_NEAR(r.spec.gbw_min, spec.gbw_min, spec.gbw_min * 1e-9);
    EXPECT_NEAR(r.spec.slew_min, spec.slew_min, spec.slew_min * 1e-9);
    EXPECT_NEAR(r.spec.cload, spec.cload, spec.cload * 1e-9);
    EXPECT_NEAR(r.spec.offset_max, spec.offset_max, 1e-12);
    EXPECT_NEAR(r.spec.power_max, spec.power_max, 1e-12);
    EXPECT_NEAR(r.spec.icmr_lo, spec.icmr_lo, 1e-12);
    EXPECT_NEAR(r.spec.icmr_hi, spec.icmr_hi, 1e-12);
  }
}

TEST(SpecParser, UnknownKeyIsError) {
  const SpecParseResult r =
      parse_opamp_spec("cload_pf 10\nbogus 3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.log.contains_code("spec-parse"));
}

TEST(SpecParser, BadValueIsError) {
  EXPECT_FALSE(parse_opamp_spec("cload_pf ten\n").ok());
  EXPECT_FALSE(parse_opamp_spec("cload_pf\n").ok());
}

TEST(SpecParser, NonFiniteValueIsLineNumberedError) {
  // strtod reads "nan"; a NaN bound would pass every `<` check downstream.
  std::string text = to_spec_text(synth::spec_case_a());
  text.replace(text.find("gain_db     45"), 14, "gain_db nan");
  const SpecParseResult r = parse_opamp_spec(text);
  EXPECT_FALSE(r.ok());
  ASSERT_NE(r.log.first_error(), nullptr);
  EXPECT_EQ(r.log.first_error()->code, "spec-parse");
  EXPECT_EQ(r.log.first_error()->message, "line 2: bad value 'nan'");
  // A finite value that overflows once scaled to SI is rejected too.
  EXPECT_FALSE(parse_opamp_spec("gbw_mhz 1e303\n").ok());
}

TEST(SpecParser, ValidationRunsAfterParse) {
  // Parses cleanly but violates spec sanity (no load).
  const SpecParseResult r = parse_opamp_spec("gain_db 60\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.log.contains_code("spec-invalid"));
}

TEST(SpecParser, MissingFileReportsIo) {
  const SpecParseResult r = load_opamp_spec_file("/no/such/file.spec");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.log.contains_code("spec-io"));
}

}  // namespace
}  // namespace oasys::core
