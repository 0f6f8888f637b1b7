#pragma once

// The saclo tools' one parser of numeric flag values: the whole value
// must parse as the flag's type and fit in it, otherwise the tool
// reports "invalid value 'abc' for --devices" and exits with status 2.

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace saclo::tools {

class InvalidFlagValue : public std::runtime_error {
 public:
  InvalidFlagValue(const std::string& flag, const std::string& value)
      : std::runtime_error("invalid value '" + value + "' for " + flag) {}
};

template <typename T>
T flag_number(const std::string& flag, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) throw InvalidFlagValue(flag, value);
  return out;
}

}  // namespace saclo::tools
