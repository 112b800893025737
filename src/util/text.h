// Small string utilities shared by the tech-file parser, the SPICE-deck
// writer, and report printing.  No locale dependence, ASCII only.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace oasys::util {

// Leading/trailing whitespace removed (space, tab, CR, LF).
std::string_view trim(std::string_view s);

// Split on any run of the characters in `delims`; empty fields dropped.
std::vector<std::string> split(std::string_view s,
                               std::string_view delims = " \t");

// Split into lines on '\n'; keeps empty lines; strips trailing '\r'.
std::vector<std::string> split_lines(std::string_view s);

std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

// Strict double parse of the whole (trimmed) token; nullopt on failure and
// on non-finite results (nan, inf, or overflow such as 1e999).
std::optional<double> parse_double(std::string_view s);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Engineering notation with a SPICE-style suffix: 3.2e-12 -> "3.2p".
std::string eng(double value, int significant_digits = 4);

}  // namespace oasys::util
