#include "synth/test_cases.h"

#include "util/units.h"

namespace oasys::synth {

using namespace util;  // unit helpers

core::OpAmpSpec spec_case_a() {
  core::OpAmpSpec s{.name = "A"};
  s.gain_min_db = 45.0;
  s.gbw_min = mhz(1.0);
  s.pm_min_deg = 45.0;
  s.slew_min = v_per_us(1.0);
  s.cload = pf(10.0);
  s.swing_pos = 1.0;
  s.swing_neg = 1.0;
  s.offset_max = mv(20.0);
  s.icmr_lo = -2.0;
  s.icmr_hi = 2.0;
  s.power_max = mw(5.0);
  return s;
}

core::OpAmpSpec spec_case_b() {
  core::OpAmpSpec s{.name = "B"};
  s.gain_min_db = 70.0;
  s.gbw_min = mhz(2.0);
  s.pm_min_deg = 45.0;
  s.slew_min = v_per_us(2.0);
  s.cload = pf(10.0);
  s.swing_pos = 3.5;
  s.swing_neg = 3.5;
  s.offset_max = mv(2.0);
  s.icmr_lo = -2.0;
  s.icmr_hi = 2.0;
  s.power_max = mw(10.0);
  return s;
}

core::OpAmpSpec spec_case_c() {
  core::OpAmpSpec s{.name = "C"};
  s.gain_min_db = 100.0;
  s.gbw_min = mhz(5.0);
  s.pm_min_deg = 45.0;
  s.slew_min = v_per_us(5.0);
  s.cload = pf(5.0);
  s.swing_pos = 2.5;
  s.swing_neg = 2.5;
  s.offset_max = mv(1.0);
  s.icmr_lo = -1.5;
  s.icmr_hi = 1.5;
  s.power_max = mw(15.0);
  return s;
}

std::vector<core::OpAmpSpec> paper_test_cases() {
  return {spec_case_a(), spec_case_b(), spec_case_c()};
}

}  // namespace oasys::synth
