// Whole-string number parsing shared by the command-line tools. A flag's
// value is a number only when all of it is one finite number, so "8x",
// "2.5x" and "10ax20" are usage errors rather than 8, 2.5 and 10x20.
#pragma once

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

namespace mdcp::tools {

/// `text` as a number when the whole of it is one finite number.
inline std::optional<double> parse_number(const std::string& text) {
  const char* s = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// The usage message for a value of `--flag` that is not wholly a number.
inline std::string not_a_number(const std::string& flag,
                                const std::string& text) {
  return "--" + flag + " needs a number, got '" + text + "'";
}

}  // namespace mdcp::tools
