#pragma once

#include <cstdint>
#include <optional>

#include "core/tape.hpp"

namespace saclo::testsupport {

/// While alive, every TapeLanes on thread scratch starts poisoned (see
/// set_tape_scratch_poison), on every thread: a tape that reads a slot
/// or stack row before it writes it reads a different garbage value on
/// each lane and diverges from its oracle, where on zero-filled rows it
/// would read 0 and might not.
class PoisonedTapeScratch {
 public:
  static constexpr std::int64_t kPattern = 0x5EEDBAD00DD50000;

  PoisonedTapeScratch() { set_tape_scratch_poison(kPattern); }
  ~PoisonedTapeScratch() { set_tape_scratch_poison(std::nullopt); }
  PoisonedTapeScratch(const PoisonedTapeScratch&) = delete;
  PoisonedTapeScratch& operator=(const PoisonedTapeScratch&) = delete;
};

}  // namespace saclo::testsupport
