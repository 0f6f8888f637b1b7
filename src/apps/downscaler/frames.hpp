#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/ndarray.hpp"

namespace saclo::gpu {
class ThreadPool;
}  // namespace saclo::gpu

namespace saclo::apps {

/// Synthetic video source — the stand-in for the paper's OpenCV-backed
/// FrameGenerator IP (we have no camera or video file; only the array
/// shapes and value ranges matter to the evaluation). Fills `out`, a
/// row-major frame of the 2-D `shape`, with a deterministic moving test
/// pattern, 8-bit range per channel. Every element is written. With
/// `workers`, blocks of rows of at least 64 Ki elements run on that
/// pool; a smaller frame stays on the caller's thread.
void synthetic_channel(std::span<std::int64_t> out, const Shape& shape, int frame_index,
                       int channel, gpu::ThreadPool* workers = nullptr);

/// The same pattern as a new array.
IntArray synthetic_channel(const Shape& shape, int frame_index, int channel);

struct RgbFrame {
  IntArray r;
  IntArray g;
  IntArray b;
};

RgbFrame synthetic_frame(const Shape& shape, int frame_index);

/// FrameConstructor stand-in: writes a binary PPM (P6) image so example
/// outputs can be eyeballed. Values are clamped to [0, 255].
void write_ppm(const std::string& path, const RgbFrame& frame);

}  // namespace saclo::apps
