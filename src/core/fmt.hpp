#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace saclo {

/// Minimal string-building helpers. libstdc++ 12 does not ship
/// std::format, so the project standardises on these instead of
/// scattering ostringstream boilerplate.

/// Concatenates all arguments using operator<<.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

/// Joins the elements of a range with a separator: join({1,2,3}, ",") == "1,2,3".
template <typename Range>
std::string join(const Range& range, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& v : range) {
    if (!first) os << sep;
    os << v;
    first = false;
  }
  return os.str();
}

/// Renders a vector as "[a,b,c]" — the notation used throughout the
/// generated-code printers and error messages.
std::string bracketed(const std::vector<std::int64_t>& v);

/// Left-pads/truncates to a fixed-width column (used by the nvprof-style
/// profiler tables).
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

/// Formats a double with the given number of decimals.
std::string fixed(double value, int decimals);

/// The shortest decimal that parses back to exactly `value`. For
/// exported numbers that readers compare against each other, where a
/// rounded rendering could cross a bound the exact values respect.
std::string round_trip(double value);

}  // namespace saclo
