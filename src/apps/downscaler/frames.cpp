#include "apps/downscaler/frames.hpp"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "core/fmt.hpp"

namespace saclo::apps {

IntArray synthetic_channel(const Shape& shape, int frame_index, int channel) {
  if (shape.rank() != 2) throw Error("synthetic_channel expects a 2-D shape");
  if (frame_index < 0 || channel < 0) {
    throw Error("synthetic_channel expects a non-negative frame index and channel");
  }
  const std::int64_t h = shape[0];
  const std::int64_t w = shape[1];
  const std::int64_t t = frame_index;
  const std::int64_t c = channel;
  const std::int64_t bar_period = std::max<std::int64_t>(w / 4, 1);
  // A moving plaid with a channel-dependent phase: smooth regions,
  // edges and motion, all deterministic. Per pixel
  //   v = (13x + 7y + 5t + 83c) mod 256, inverted on alternate 16x16
  //   blocks ((x/16 + y/16 + t) even), shifted by 128 on a diagonal bar
  //   ((x + y + 3t) mod w/4 < 8).
  // Written row by row, with 13x and the bar phase carried along x.
  std::vector<std::int64_t> px;
  px.reserve(static_cast<std::size_t>(h * w));
  for (std::int64_t y = 0; y < h; ++y) {
    const std::int64_t row = (y * 7 + t * 5 + c * 83) % 256;
    const std::int64_t row_block = (y / 16 + t) % 2;
    std::int64_t plaid = 0;  // 13x mod 256
    std::int64_t bar = (y + 3 * t) % bar_period;
    for (std::int64_t x = 0; x < w; ++x) {
      std::int64_t v = (plaid + row) % 256;
      if (((x / 16) % 2) == row_block) v = 255 - v;
      if (bar < 8) v = (v + 128) % 256;
      px.push_back(v);
      plaid = (plaid + 13) % 256;
      if (++bar == bar_period) bar = 0;
    }
  }
  return IntArray(shape, std::move(px));
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
