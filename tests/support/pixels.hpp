#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/ndarray.hpp"

namespace saclo::testsupport {

/// A GASPARD application's inputs in the device's pixel format, which
/// OpenClApplication::run takes: `inputs`, whose values fit 32 bits,
/// converted element for element.
inline std::map<std::string, PixelArray> pixels_of(const std::map<std::string, IntArray>& inputs) {
  std::map<std::string, PixelArray> pixels;
  for (const auto& [name, a] : inputs) pixels.emplace(name, converted<std::int32_t>(a));
  return pixels;
}

}  // namespace saclo::testsupport
