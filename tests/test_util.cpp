#include <gtest/gtest.h>

#include "util/diagnostics.h"
#include "util/table.h"
#include "util/text.h"
#include "util/units.h"

namespace oasys::util {
namespace {

// ---- units ---------------------------------------------------------------

TEST(Units, ScaleHelpersRoundTrip) {
  EXPECT_DOUBLE_EQ(um(5.0), 5e-6);
  EXPECT_DOUBLE_EQ(in_um(um(5.0)), 5.0);
  EXPECT_DOUBLE_EQ(pf(3.2), 3.2e-12);
  EXPECT_DOUBLE_EQ(in_pf(pf(3.2)), 3.2);
  EXPECT_DOUBLE_EQ(ua(25.0), 25e-6);
  EXPECT_DOUBLE_EQ(in_ua(ua(25.0)), 25.0);
  EXPECT_DOUBLE_EQ(mhz(2.0), 2e6);
  EXPECT_DOUBLE_EQ(in_mhz(mhz(2.0)), 2.0);
  EXPECT_DOUBLE_EQ(v_per_us(1.0), 1e6);
  EXPECT_DOUBLE_EQ(in_v_per_us(v_per_us(3.0)), 3.0);
}

TEST(Units, AreaConversion) {
  // 1 um^2 = 1e-12 m^2.
  EXPECT_DOUBLE_EQ(in_um2(1e-12), 1.0);
  EXPECT_DOUBLE_EQ(in_um2(um(10.0) * um(20.0)), 200.0);
}

TEST(Units, Decibels) {
  EXPECT_DOUBLE_EQ(db20(10.0), 20.0);
  EXPECT_DOUBLE_EQ(db20(100.0), 40.0);
  EXPECT_DOUBLE_EQ(db20(-10.0), 20.0);  // magnitude
  EXPECT_NEAR(from_db20(40.0), 100.0, 1e-9);
  EXPECT_NEAR(from_db20(db20(1234.5)), 1234.5, 1e-6);
  EXPECT_DOUBLE_EQ(db10(100.0), 20.0);
}

TEST(Units, Angles) {
  EXPECT_NEAR(deg(kPi), 180.0, 1e-12);
  EXPECT_NEAR(rad(90.0), kPi / 2.0, 1e-12);
  EXPECT_NEAR(deg(rad(37.0)), 37.0, 1e-12);
}

TEST(Units, ThermalVoltageAtRoomTemperature) {
  EXPECT_NEAR(kThermalVoltage, 0.02585, 1e-4);
}

TEST(Units, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1.0, 1.001, 1e-2));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
}

// ---- text ------------------------------------------------------------------

TEST(Text, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\t x\r\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(Text, Split) {
  EXPECT_EQ(split("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,b;;c", ",;"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split("   ").empty());
  EXPECT_EQ(split("one"), (std::vector<std::string>{"one"}));
}

TEST(Text, SplitLines) {
  const auto lines = split_lines("a\nb\r\n\nc");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");  // CR stripped
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], "c");
}

TEST(Text, ToLowerAndStartsWith) {
  EXPECT_EQ(to_lower("AbC1!"), "abc1!");
  EXPECT_TRUE(starts_with("hello world", "hello"));
  EXPECT_FALSE(starts_with("hello", "hello world"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Text, ParseDouble) {
  ASSERT_TRUE(parse_double("3.5").has_value());
  EXPECT_DOUBLE_EQ(*parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_double("  -1e-3 "), -1e-3);
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  // Non-finite results are rejected, including overflow to inf.
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("-inf").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());
  // Signed zero and subnormals are finite and parse.
  EXPECT_EQ(*parse_double("-0"), 0.0);
  EXPECT_GT(*parse_double("1e-320"), 0.0);
}

TEST(Text, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Text, EngineeringNotation) {
  EXPECT_EQ(eng(0.0), "0");
  EXPECT_EQ(eng(3.2e-12), "3.2p");
  EXPECT_EQ(eng(1e-6), "1u");
  EXPECT_EQ(eng(2.5e3), "2.5k");
  EXPECT_EQ(eng(4.7e6), "4.7meg");
  EXPECT_EQ(eng(1.0), "1");
  EXPECT_EQ(eng(-3e-3), "-3m");
}

// ---- diagnostics -------------------------------------------------------------

TEST(Diagnostics, SeverityFiltering) {
  DiagnosticLog log;
  EXPECT_FALSE(log.has_errors());
  log.info("step", "chose Cc");
  log.warning("tight", "marginal headroom");
  EXPECT_FALSE(log.has_errors());
  EXPECT_TRUE(log.has_warnings());
  log.error("gain-shortfall", "cannot reach 100 dB");
  EXPECT_TRUE(log.has_errors());
  ASSERT_NE(log.first_error(), nullptr);
  EXPECT_EQ(log.first_error()->code, "gain-shortfall");
  EXPECT_EQ(log.size(), 3u);
}

TEST(Diagnostics, ContainsCodeAndAppend) {
  DiagnosticLog a;
  a.info("one", "first");
  DiagnosticLog b;
  b.error("two", "second");
  a.append(b);
  EXPECT_TRUE(a.contains_code("one"));
  EXPECT_TRUE(a.contains_code("two"));
  EXPECT_FALSE(a.contains_code("three"));
  EXPECT_EQ(a.size(), 2u);
}

TEST(Diagnostics, Rendering) {
  DiagnosticLog log;
  log.warning("code-x", "message y");
  const std::string s = log.to_string();
  EXPECT_NE(s.find("warning"), std::string::npos);
  EXPECT_NE(s.find("code-x"), std::string::npos);
  EXPECT_NE(s.find("message y"), std::string::npos);
}

// ---- table ---------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  // Header and two rows plus rule line.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Every line has the same width.
  std::size_t first_nl = s.find('\n');
  const std::string header = s.substr(0, first_nl);
  EXPECT_NE(header.find("name"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, RejectsOversizeRows) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, SeparatorRendersRule) {
  Table t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // Two rule lines: one under the header, one mid-table -> 5 lines total.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

}  // namespace
}  // namespace oasys::util
