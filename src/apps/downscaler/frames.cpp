#include "apps/downscaler/frames.hpp"

#include <algorithm>
#include <fstream>

#include "core/fmt.hpp"
#include "gpu/executor.hpp"

namespace saclo::apps {

namespace {

/// Rows per block a fill hands to the worker pool hold at least this
/// many elements.
constexpr std::int64_t kFillBlock = 64 * 1024;

/// Row y of frame t, channel c, of width w and bar period `period`.
void fill_row(std::int32_t* px, std::int64_t w, std::int64_t y, std::int64_t t, std::int64_t c,
              std::int64_t period) {
  // The plaid v = (13x + 7y + 5t + 83c) mod 256, in 32-bit lanes: the
  // low 8 bits survive the unsigned wrap.
  const auto row = static_cast<std::uint32_t>((7 * y + 5 * t + 83 * c) & 255);
  for (std::int64_t x = 0; x < w; ++x) {
    px[x] = static_cast<std::int32_t>((13u * static_cast<std::uint32_t>(x) + row) & 255u);
  }
  // Inverted (255 - v) on alternate 16x16 blocks, (x/16 + y/16 + t) even.
  for (std::int64_t x0 = 16 * (((y >> 4) + t) & 1); x0 < w; x0 += 32) {
    const std::int64_t x1 = std::min(x0 + 16, w);
    for (std::int64_t x = x0; x < x1; ++x) px[x] ^= 255;
  }
  // Shifted by 128 on a diagonal bar, (x + y + 3t) mod period < 8: the
  // runs [k*period - b0, k*period - b0 + min(8, period)).
  const std::int64_t bar = std::min<std::int64_t>(8, period);
  for (std::int64_t s = -((y + 3 * t) % period); s < w; s += period) {
    const std::int64_t x1 = std::min(s + bar, w);
    for (std::int64_t x = std::max<std::int64_t>(s, 0); x < x1; ++x) px[x] ^= 128;
  }
}

}  // namespace

void synthetic_channel(std::span<std::int32_t> out, const Shape& shape, int frame_index,
                       int channel, gpu::ThreadPool* workers) {
  if (shape.rank() != 2) throw Error("synthetic_channel expects a 2-D shape");
  if (frame_index < 0 || channel < 0) {
    throw Error("synthetic_channel expects a non-negative frame index and channel");
  }
  if (static_cast<std::int64_t>(out.size()) != shape.elements()) {
    throw Error(cat("synthetic_channel of ", shape.to_string(), " into ", out.size(),
                    " elements"));
  }
  if (out.empty()) return;
  const std::int64_t h = shape[0];
  const std::int64_t w = shape[1];
  const std::int64_t period = std::max<std::int64_t>(w / 4, 1);
  const std::int64_t rows_per_block = (kFillBlock + w - 1) / w;
  const std::int64_t blocks = (h + rows_per_block - 1) / rows_per_block;
  const auto fill = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t y = begin * rows_per_block; y < std::min(end * rows_per_block, h); ++y) {
      fill_row(out.data() + y * w, w, y, frame_index, channel, period);
    }
  };
  if (workers != nullptr && blocks > 1) {
    workers->parallel_for(blocks, fill);
  } else {
    fill(0, blocks);
  }
}

PixelArray synthetic_pixels(const Shape& shape, int frame_index, int channel) {
  PixelArray a(shape);
  synthetic_channel(a.data(), shape, frame_index, channel);
  return a;
}

IntArray synthetic_channel(const Shape& shape, int frame_index, int channel) {
  return converted<std::int64_t>(synthetic_pixels(shape, frame_index, channel));
}

RgbFrame synthetic_frame(const Shape& shape, int frame_index) {
  return RgbFrame{synthetic_channel(shape, frame_index, 0),
                  synthetic_channel(shape, frame_index, 1),
                  synthetic_channel(shape, frame_index, 2)};
}

void write_ppm(const std::string& path, const RgbFrame& frame) {
  const Shape& s = frame.r.shape();
  if (frame.g.shape() != s || frame.b.shape() != s || s.rank() != 2) {
    throw Error("write_ppm: channels must share one 2-D shape");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error(cat("cannot open '", path, "' for writing"));
  out << "P6\n" << s[1] << " " << s[0] << "\n255\n";
  auto clamp8 = [](std::int64_t v) {
    return static_cast<unsigned char>(std::clamp<std::int64_t>(v, 0, 255));
  };
  for (std::int64_t i = 0; i < s.elements(); ++i) {
    const unsigned char px[3] = {clamp8(frame.r[i]), clamp8(frame.g[i]), clamp8(frame.b[i])};
    out.write(reinterpret_cast<const char*>(px), 3);
  }
}

}  // namespace saclo::apps
