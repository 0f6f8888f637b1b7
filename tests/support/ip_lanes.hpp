#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "arrayol/ip.hpp"

namespace saclo::testsupport {

/// Runs `op`, lowered to the tape VM, over a lane-major block of n
/// instances, at most kMaxTapeLanes per run and on the thread's tape
/// scratch, as the executor does: row e
/// of `in` is in[e * n, (e + 1) * n), element e of the concatenated
/// input patterns with one value per lane, and `out` holds the output
/// elements the same way.
inline void run_ip_lanes(const aol::ElementaryOp& op, std::span<const std::int64_t> in,
                         std::span<std::int64_t> out, std::size_t n) {
  const std::size_t in_elements = in.size() / n;
  const Tape tape = aol::lower_to_tape(op, static_cast<std::int64_t>(in_elements));
  TapeLanes lanes(tape, kMaxTapeLanes, TapeLanes::ThreadScratch{});
  for (std::size_t first = 0; first < n; first += kMaxTapeLanes) {
    const std::size_t m = std::min<std::size_t>(n - first, kMaxTapeLanes);
    for (std::size_t e = 0; e < in_elements; ++e) {
      for (std::size_t l = 0; l < m; ++l) {
        lanes.slot(tape.input_slots[e])[l] = in[e * n + first + l];
      }
    }
    tape.run(lanes, static_cast<int>(m), {});
    for (std::size_t k = 0; k < tape.result_slots.size(); ++k) {
      for (std::size_t l = 0; l < m; ++l) {
        out[k * n + first + l] = lanes.slot(tape.result_slots[k])[l];
      }
    }
  }
}

}  // namespace saclo::testsupport
