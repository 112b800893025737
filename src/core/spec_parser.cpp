#include "core/spec_parser.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "util/text.h"
#include "util/units.h"

namespace oasys::core {

namespace {

struct FieldSpec {
  double OpAmpSpec::* field;
  double scale;  // file units -> SI
};

const std::map<std::string, FieldSpec>& fields() {
  static const std::map<std::string, FieldSpec> kFields = {
      {"gain_db", {&OpAmpSpec::gain_min_db, 1.0}},
      {"gbw_mhz", {&OpAmpSpec::gbw_min, util::kMega}},
      {"pm_deg", {&OpAmpSpec::pm_min_deg, 1.0}},
      {"slew_v_us", {&OpAmpSpec::slew_min, util::kMega}},
      {"cload_pf", {&OpAmpSpec::cload, util::kPico}},
      {"swing_pos_v", {&OpAmpSpec::swing_pos, 1.0}},
      {"swing_neg_v", {&OpAmpSpec::swing_neg, 1.0}},
      {"offset_mv", {&OpAmpSpec::offset_max, util::kMilli}},
      {"icmr_lo_v", {&OpAmpSpec::icmr_lo, 1.0}},
      {"icmr_hi_v", {&OpAmpSpec::icmr_hi, 1.0}},
      {"power_mw", {&OpAmpSpec::power_max, util::kMilli}},
      {"area_um2", {&OpAmpSpec::area_max, 1e-12}},
      {"cmrr_db", {&OpAmpSpec::cmrr_min_db, 1.0}},
      {"psrr_db", {&OpAmpSpec::psrr_min_db, 1.0}},
      {"noise_nv_rthz", {&OpAmpSpec::noise_max, 1e-9}},
  };
  return kFields;
}

}  // namespace

SpecParseResult parse_opamp_spec(std::string_view text) {
  SpecParseResult result;
  int line_no = 0;
  for (const std::string& raw : util::split_lines(text)) {
    ++line_no;
    std::string line = raw;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto tokens = util::split(trimmed);
    if (tokens.size() != 2) {
      result.log.error("spec-parse",
                       util::format("line %d: expected 'key value'",
                                    line_no));
      continue;
    }
    const std::string key = util::to_lower(tokens[0]);
    if (key == "name") {
      result.spec.name = tokens[1];
      continue;
    }
    const auto it = fields().find(key);
    if (it == fields().end()) {
      result.log.error("spec-parse",
                       util::format("line %d: unknown key '%s'", line_no,
                                    key.c_str()));
      continue;
    }
    const auto value = util::parse_double(tokens[1]);
    if (!value || !std::isfinite(*value * it->second.scale)) {
      result.log.error("spec-parse",
                       util::format("line %d: bad value '%s'", line_no,
                                    tokens[1].c_str()));
      continue;
    }
    result.spec.*(it->second.field) = *value * it->second.scale;
  }
  if (!result.log.has_errors()) {
    result.log.append(result.spec.validate());
  }
  return result;
}

SpecParseResult load_opamp_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    SpecParseResult r;
    r.log.error("spec-io",
                util::format("cannot open spec file '%s'", path.c_str()));
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_opamp_spec(buf.str());
}

std::string to_spec_text(const OpAmpSpec& spec) {
  std::ostringstream os;
  os << "name        " << (spec.name.empty() ? "unnamed" : spec.name)
     << "\n";
  os << util::format("gain_db     %.6g\n", spec.gain_min_db);
  os << util::format("gbw_mhz     %.6g\n", util::in_mhz(spec.gbw_min));
  os << util::format("pm_deg      %.6g\n", spec.pm_min_deg);
  os << util::format("slew_v_us   %.6g\n", util::in_v_per_us(spec.slew_min));
  os << util::format("cload_pf    %.6g\n", util::in_pf(spec.cload));
  os << util::format("swing_pos_v %.6g\n", spec.swing_pos);
  os << util::format("swing_neg_v %.6g\n", spec.swing_neg);
  os << util::format("offset_mv   %.6g\n", util::in_mv(spec.offset_max));
  os << util::format("icmr_lo_v   %.6g\n", spec.icmr_lo);
  os << util::format("icmr_hi_v   %.6g\n", spec.icmr_hi);
  os << util::format("power_mw    %.6g\n", util::in_mw(spec.power_max));
  if (spec.area_max > 0.0) {
    os << util::format("area_um2    %.6g\n", util::in_um2(spec.area_max));
  }
  if (spec.cmrr_min_db > 0.0) {
    os << util::format("cmrr_db     %.6g\n", spec.cmrr_min_db);
  }
  if (spec.psrr_min_db > 0.0) {
    os << util::format("psrr_db     %.6g\n", spec.psrr_min_db);
  }
  if (spec.noise_max > 0.0) {
    os << util::format("noise_nv_rthz %.6g\n", spec.noise_max * 1e9);
  }
  return os.str();
}

}  // namespace oasys::core
