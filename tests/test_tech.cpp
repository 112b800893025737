#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "tech/builtin.h"
#include "tech/tech_parser.h"
#include "tech/technology.h"
#include "util/units.h"

namespace oasys::tech {
namespace {

using util::um;

TEST(Technology, FiveMicronValidates) {
  const Technology t = five_micron();
  EXPECT_FALSE(t.validate().has_errors());
  EXPECT_EQ(t.name, "cmos5");
  EXPECT_DOUBLE_EQ(t.supply_span(), 10.0);
  EXPECT_DOUBLE_EQ(t.mid_supply(), 0.0);
  EXPECT_DOUBLE_EQ(t.lmin, um(5.0));
}

TEST(Technology, ThreeMicronValidates) {
  const Technology t = three_micron();
  EXPECT_FALSE(t.validate().has_errors());
  EXPECT_LT(t.lmin, five_micron().lmin);
  EXPECT_GT(t.cox, five_micron().cox);  // thinner oxide, more capacitance
}

TEST(Technology, LambdaScalesInverselyWithLength) {
  const Technology t = five_micron();
  const double l5 = t.nmos.lambda_at(um(5.0));
  const double l10 = t.nmos.lambda_at(um(10.0));
  EXPECT_NEAR(l5, 0.035, 1e-12);
  EXPECT_NEAR(l5 / l10, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.nmos.lambda_at(0.0), 0.0);
}

TEST(Technology, DeviceAreaIncludesDiffusions) {
  const Technology t = five_micron();
  const double w = um(10.0);
  const double l = um(5.0);
  EXPECT_DOUBLE_EQ(t.device_area(w, l),
                   w * l + 2.0 * w * t.drain_ext);
  EXPECT_GT(t.device_area(w, l), w * l);
}

TEST(Technology, CapacitorArea) {
  const Technology t = five_micron();
  // cox ~ 0.406 fF/um^2, so 1 pF needs ~2463 um^2.
  EXPECT_NEAR(util::in_um2(t.capacitor_area(util::pf(1.0))), 2463.0, 10.0);
}

TEST(Technology, ValidateCatchesBadSupplies) {
  Technology t = five_micron();
  t.vss = t.vdd + 1.0;
  EXPECT_TRUE(t.validate().has_errors());
}

TEST(Technology, ValidateCatchesNonPositiveDimensions) {
  Technology t = five_micron();
  t.lmin = 0.0;
  EXPECT_TRUE(t.validate().has_errors());
}

TEST(Technology, ValidateWarnsOnInconsistentCox) {
  Technology t = five_micron();
  t.cox *= 3.0;  // no longer eps_ox / tox
  const auto log = t.validate();
  EXPECT_FALSE(log.has_errors());
  EXPECT_TRUE(log.has_warnings());
}

// ---- parser ------------------------------------------------------------------

TEST(TechParser, RoundTripsBuiltins) {
  for (const Technology& t : {five_micron(), three_micron()}) {
    const std::string text = to_tech_text(t);
    const ParseResult r = parse_tech(text);
    ASSERT_TRUE(r.ok()) << r.log.to_string();
    const Technology& u = r.technology;
    EXPECT_EQ(u.name, t.name);
    EXPECT_NEAR(u.vdd, t.vdd, 1e-9);
    EXPECT_NEAR(u.vss, t.vss, 1e-9);
    EXPECT_NEAR(u.lmin, t.lmin, 1e-12);
    EXPECT_NEAR(u.tox, t.tox, 1e-15);
    EXPECT_NEAR(u.cox, t.cox, t.cox * 1e-5);
    EXPECT_NEAR(u.nmos.kp, t.nmos.kp, t.nmos.kp * 1e-5);
    EXPECT_NEAR(u.nmos.vt0, t.nmos.vt0, 1e-9);
    EXPECT_NEAR(u.nmos.lambda_l, t.nmos.lambda_l, 1e-12);
    EXPECT_NEAR(u.pmos.cgdo, t.pmos.cgdo, t.pmos.cgdo * 1e-5);
    EXPECT_NEAR(u.pmos.cj, t.pmos.cj, t.pmos.cj * 1e-5);
    EXPECT_NEAR(u.nmos.mobility, t.nmos.mobility, t.nmos.mobility * 1e-5);
  }
}

TEST(TechParser, UnitsAreConverted) {
  const char* text = R"(
[process]
name test
vdd_v 5
vss_v -5
lmin_um 5
wmin_um 5
drain_ext_um 7
tox_a 850
cox_ff_um2 0.406
[nmos]
vt0_v 0.8
kp_ua_v2 24
gamma_sqrt_v 0.4
phi_v 0.6
lambda_l_um_v 0.1
[pmos]
vt0_v 0.9
kp_ua_v2 9.3
phi_v 0.6
)";
  const ParseResult r = parse_tech(text);
  ASSERT_TRUE(r.ok()) << r.log.to_string();
  EXPECT_NEAR(r.technology.lmin, 5e-6, 1e-12);
  EXPECT_NEAR(r.technology.tox, 850e-10, 1e-15);
  EXPECT_NEAR(r.technology.cox, 0.406e-3, 1e-9);  // fF/um^2 -> F/m^2
  EXPECT_NEAR(r.technology.nmos.kp, 24e-6, 1e-12);
  EXPECT_NEAR(r.technology.nmos.lambda_l, 0.1e-6, 1e-15);
}

TEST(TechParser, CommentsAndBlanksIgnored) {
  const std::string base = to_tech_text(five_micron());
  const std::string with_noise = "# leading comment\n\n" + base +
                                 "\n# trailing\n";
  EXPECT_TRUE(parse_tech(with_noise).ok());
}

TEST(TechParser, UnknownKeyIsError) {
  const std::string text = to_tech_text(five_micron()) + "\nbogus_key 1\n";
  const ParseResult r = parse_tech(text);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.log.contains_code("tech-parse"));
}

TEST(TechParser, KeyOutsideSectionIsError) {
  const ParseResult r = parse_tech("vdd_v 5\n");
  EXPECT_FALSE(r.ok());
}

TEST(TechParser, BadNumberIsError) {
  const ParseResult r = parse_tech("[process]\nvdd_v abc\n");
  EXPECT_FALSE(r.ok());
}

TEST(TechParser, NonFiniteValueIsLineNumberedError) {
  // A NaN gamma used to pass validation and abort inside sizing.
  std::string text = to_tech_text(five_micron());
  const std::size_t at = text.find("gamma_sqrt_v");
  const std::size_t eol = text.find('\n', at);
  text.replace(at, eol - at, "gamma_sqrt_v inf");
  const int line =
      1 + static_cast<int>(std::count(text.begin(), text.begin() + at, '\n'));
  const ParseResult r = parse_tech(text);
  EXPECT_FALSE(r.ok());
  ASSERT_NE(r.log.first_error(), nullptr);
  EXPECT_EQ(r.log.first_error()->code, "tech-parse");
  EXPECT_EQ(r.log.first_error()->message,
            "line " + std::to_string(line) +
                ": cannot parse value 'inf' for key 'gamma_sqrt_v'");
}

TEST(TechParser, UnknownSectionIsError) {
  const ParseResult r = parse_tech("[bipolar]\n");
  EXPECT_FALSE(r.ok());
}

TEST(TechParser, MissingFileReportsIoError) {
  const ParseResult r = load_tech_file("/nonexistent/path.tech");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.log.contains_code("tech-io"));
}

TEST(TechParser, IncompleteTechFailsValidation) {
  // Parses fine but validation catches the absent parameters.
  const ParseResult r = parse_tech("[process]\nname x\nvdd_v 5\nvss_v -5\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.log.contains_code("tech-invalid"));
}

}  // namespace
}  // namespace oasys::tech
