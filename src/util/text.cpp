#include "util/text.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace oasys::util {

std::string_view trim(std::string_view s) {
  const char* ws = " \t\r\n";
  const auto b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    const auto b = s.find_first_not_of(delims, i);
    if (b == std::string_view::npos) break;
    auto e = s.find_first_of(delims, b);
    if (e == std::string_view::npos) e = s.size();
    out.emplace_back(s.substr(b, e - b));
    i = e;
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    auto e = s.find('\n', start);
    if (e == std::string_view::npos) e = s.size();
    std::string_view line = s.substr(start, e - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out.emplace_back(line);
    if (e == s.size()) break;
    start = e + 1;
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string eng(double value, int significant_digits) {
  if (value == 0.0) return "0";
  if (!std::isfinite(value)) return value > 0 ? "inf" : (value < 0 ? "-inf" : "nan");
  struct Suffix {
    double scale;
    const char* text;
  };
  static constexpr Suffix kSuffixes[] = {
      {1e9, "g"},  {1e6, "meg"}, {1e3, "k"},  {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"},  {1e-9, "n"}, {1e-12, "p"},
      {1e-15, "f"}};
  const double mag = std::abs(value);
  const Suffix* pick = &kSuffixes[3];  // unity
  for (const auto& s : kSuffixes) {
    if (mag >= s.scale * 0.9999999) {
      pick = &s;
      break;
    }
    pick = &s;  // falls through to the smallest suffix for tiny values
  }
  const double scaled = value / pick->scale;
  std::string num = format("%.*g", significant_digits, scaled);
  return num + pick->text;
}

}  // namespace oasys::util
