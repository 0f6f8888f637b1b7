#include "core/fmt.hpp"

#include <charconv>
#include <iomanip>

namespace saclo {

std::string bracketed(const std::vector<std::int64_t>& v) {
  return cat("[", join(v, ","), "]");
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string fixed(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string round_trip(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

}  // namespace saclo
