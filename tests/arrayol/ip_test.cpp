// The IP expression IR and the three views derived from it: the flop
// count, the C text and the lane-major tape.

#include "arrayol/ip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "core/const_divisor.hpp"
#include "core/fmt.hpp"
#include "gpu/backend.hpp"
#include "support/ip_lanes.hpp"

namespace saclo::aol {
namespace {

using apps::DownscalerConfig;
using apps::FilterSpec;
using testsupport::run_ip_lanes;

/// The hand-written lane-major downscale body that the IR replaced, kept
/// as the reference: output row k sums input rows starts[k] ..
/// starts[k] + window - 1 lane by lane, then takes tmp / window -
/// tmp % window.
void reference_downscale(const FilterSpec& spec, std::span<const std::int64_t> in,
                         std::span<std::int64_t> out, std::size_t n) {
  const ConstDivisor divisor(spec.window);
  const auto window = static_cast<std::size_t>(spec.window);
  for (std::size_t k = 0; k < spec.window_starts.size(); ++k) {
    const std::span<std::int64_t> tmp = out.subspan(k * n, n);
    const std::span<const std::int64_t> rows =
        in.subspan(static_cast<std::size_t>(spec.window_starts[k]) * n, window * n);
    std::fill_n(tmp.begin(), n, 0);
    for (std::size_t w = 0; w < window; ++w) {
      for (std::size_t l = 0; l < n; ++l) tmp[l] += rows[w * n + l];
    }
    for (std::size_t l = 0; l < n; ++l) {
      const std::int64_t q = divisor.div(tmp[l]);
      tmp[l] = q - (tmp[l] - q * divisor.divisor());
    }
  }
}

std::string element(const char* prefix, std::int64_t e) { return cat(prefix, "[", e, "]"); }

std::string c_text(const ElementaryOp& op) {
  return print_c(
      op, [](std::int64_t e) { return element("in", e); },
      [](std::int64_t k) { return element("out", k); }, "  ");
}

// The flop count of the paper's IPs: window additions from the literal
// 0 plus a division, a modulo and a subtraction per output.
TEST(IpTest, DownscaleFlopsCountTheWindowSumAndTheDivide) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  EXPECT_EQ(apps::downscale_op(cfg.h).flops(), 27);
  EXPECT_EQ(apps::downscale_op(cfg.v).flops(), 36);
  EXPECT_EQ(apps::downscale_op(cfg.h).input_extent(), cfg.h.in_pattern);
}

TEST(IpTest, DownscaleTapeMatchesTheHandWrittenBodyOverBlocksOfLanes) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  std::mt19937 rng(27);
  std::uniform_int_distribution<std::int64_t> value(-300, 300);
  for (const FilterSpec& spec : {cfg.h, cfg.v}) {
    const ElementaryOp op = apps::downscale_op(spec);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{gpu::kLanes - 1},
                                std::size_t{gpu::kLanes}, std::size_t{gpu::kLanes + 1}}) {
      std::vector<std::int64_t> in(static_cast<std::size_t>(spec.in_pattern) * n);
      for (std::int64_t& v : in) v = value(rng);
      std::vector<std::int64_t> want(static_cast<std::size_t>(spec.tile()) * n);
      std::vector<std::int64_t> got(want.size(), -7);
      reference_downscale(spec, in, want, n);
      run_ip_lanes(op, in, got, n);
      EXPECT_EQ(got, want) << op.name << " over " << n << " lanes";
    }
  }
}

TEST(IpTest, PrintsSharedNodesAsTemporariesAndTheRestInline) {
  IpBuilder ip;
  const IpValue sum = ip.lit(0) + ip.in(0) + ip.in(1);
  ip.out(sum / 6 - sum % 6);
  ip.out(ip.apply(IpOp::Min, ip.in(2) * -3, ip.in(0) - (ip.in(1) - ip.in(2))));
  ip.out(ip.in(1));
  EXPECT_EQ(c_text(ip.finish("t")),
            "  int t4 = 0 + in[0] + in[1];\n"
            "  out[0] = t4 / 6 - t4 % 6;\n"
            "  out[1] = min(in[2] * (-3), in[0] - (in[1] - in[2]));\n"
            "  out[2] = in[1];\n");
}

// Lowering: a sum adds its slot operands from their slot rows, x / k
// and x % k come from one reciprocal multiply, and the temporaries take
// the slots of inputs that are no longer read, so the paper's H filter
// needs no slot beyond its 11 inputs.
TEST(IpTest, LoweringReusesTheSlotsOfDeadValues) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  const Tape tape = lower_to_tape(apps::downscale_op(cfg.h), cfg.h.in_pattern);
  EXPECT_EQ(tape.slot_count, 11);
  EXPECT_EQ(tape.input_slots.size(), 11u);
  EXPECT_EQ(tape.result_slots.size(), 3u);
  const std::string listing = tape.to_string();
  EXPECT_EQ(listing,
            "max_depth 1\n"
            "sums s0 s1 s2 s3 s4 s5\n"
            "divmodi 6 sub\n"
            "store s0\n"
            "sums s2 s3 s4 s5 s6 s7\n"
            "divmodi 6 sub\n"
            "store s2\n"
            "sums s5 s6 s7 s8 s9 s10\n"
            "divmodi 6 sub\n"
            "store s5\n");
}

// An output that is an input, a literal or a node another output also
// reads keeps its value to the end of the run, whatever reuses slots.
TEST(IpTest, OutputsSurviveSlotReuse) {
  IpBuilder ip;
  const IpValue a = ip.in(0) * 3;
  ip.out(a);
  ip.out(ip.in(1));
  ip.out(ip.lit(-4));
  ip.out(a + ip.in(2) * 5);
  ip.out(ip.apply(IpOp::Max, ip.in(2), ip.in(0)) % 4);
  const ElementaryOp op = ip.finish("mixed");
  const std::vector<std::int64_t> in = {7, -2, 11};
  std::vector<std::int64_t> out(5);
  run_ip_lanes(op, in, out, 1);
  EXPECT_EQ(out, (std::vector<std::int64_t>{21, -2, -4, 76, 3}));
}

TEST(IpTest, SubstitutionBindsInputsAndKeepsEveryNode) {
  IpBuilder inner;
  inner.out(inner.in(0) - inner.in(1));
  inner.out(inner.in(0) * 2);  // read by nobody below
  const ElementaryOp diff = inner.finish("diff");
  IpBuilder ip;
  const std::vector<IpValue> first =
      ip.inline_op(diff, [&](std::int64_t e) { return ip.in(1 - e); });
  const std::vector<IpValue> second =
      ip.inline_op(diff, [&](std::int64_t e) { return e == 0 ? first[0] : ip.in(2); });
  ip.out(second[0]);
  const ElementaryOp op = ip.finish("composed");
  EXPECT_EQ(op.flops(), 2 * diff.flops());
  std::vector<std::int64_t> out(1);
  run_ip_lanes(op, std::vector<std::int64_t>{10, 4, 1}, out, 1);
  EXPECT_EQ(out[0], (4 - 10) - 1);
}

TEST(IpTest, DivisionErrorsAreTyped) {
  IpBuilder ip;
  EXPECT_THROW(ip.in(0) / 0, Error);
  EXPECT_THROW(ip.in(0) % 0, Error);
  ip.out(ip.in(0) / ip.in(1));
  const ElementaryOp op = ip.finish("div");
  std::vector<std::int64_t> out(1);
  EXPECT_THROW(run_ip_lanes(op, std::vector<std::int64_t>{5, 0}, out, 1), Error);
  EXPECT_THROW(lower_to_tape(op, 1), Error);  // reads input 1 of 1
}

// Pinned values (the line buffer's ring): a given node is read from its
// slot, and what only it reads is not computed; a kept node is computed
// into its slot, even when no output reads it; a node both given and
// kept moves from the one slot to the other. With the given slots
// holding the values the unpinned tape computes, the outputs agree.
TEST(IpTest, PinnedValuesAreReadFromAndKeptInTheirSlots) {
  IpBuilder ip;
  const IpValue only_given_reads = ip.in(0) / ip.in(1);
  const IpValue given = only_given_reads + ip.in(2);
  const IpValue both = ip.in(2) * 3;
  const IpValue kept = given * ip.in(3);
  const IpValue kept_unread = ip.in(3) - ip.in(0);
  ip.out(kept + both);
  ip.out(given - ip.lit(1));
  const ElementaryOp op = ip.finish("pinned");
  const std::vector<PinnedValue> pins = {{given.id(), 4, true},
                                         {both.id(), 5, true},
                                         {both.id(), 6, false},
                                         {kept.id(), 7, false},
                                         {kept_unread.id(), 8, false}};
  const Tape tape = lower_to_tape(op, 4, pins);
  EXPECT_EQ(tape.slot_count, 9);
  const Tape unpinned = lower_to_tape(op, 4);
  EXPECT_LT(tape.code.size(), unpinned.code.size());

  // Three lanes; lane l reads in = {7 + l, 1, 5 - l, 2 + l}.
  constexpr int n = 3;
  auto fill_inputs = [&](TapeLanes& lanes, std::int64_t divisor) {
    for (int l = 0; l < n; ++l) {
      lanes.slot(tape.input_slots[0])[l] = 7 + l;
      lanes.slot(tape.input_slots[1])[l] = divisor;
      lanes.slot(tape.input_slots[2])[l] = 5 - l;
      lanes.slot(tape.input_slots[3])[l] = 2 + l;
    }
  };
  TapeLanes reference(unpinned, n);
  fill_inputs(reference, 1);
  unpinned.run(reference, n, {});
  TapeLanes lanes(tape, n);
  // The divisor is 0: computing what only the given node reads throws.
  fill_inputs(lanes, 0);
  for (int l = 0; l < n; ++l) {
    lanes.slot(4)[l] = (7 + l) + (5 - l);
    lanes.slot(5)[l] = (5 - l) * 3;
    lanes.slot(6)[l] = -1;
    lanes.slot(7)[l] = -1;
    lanes.slot(8)[l] = -1;
  }
  ASSERT_NO_THROW(tape.run(lanes, n, {}));
  for (std::size_t k = 0; k < 2; ++k) {
    for (int l = 0; l < n; ++l) {
      EXPECT_EQ(lanes.slot(tape.result_slots[k])[l],
                reference.slot(unpinned.result_slots[k])[l])
          << "output " << k << ", lane " << l;
    }
  }
  for (int l = 0; l < n; ++l) {
    EXPECT_EQ(lanes.slot(6)[l], (5 - l) * 3) << "lane " << l;
    EXPECT_EQ(lanes.slot(7)[l], 12 * (2 + l)) << "lane " << l;
    EXPECT_EQ(lanes.slot(8)[l], (2 + l) - (7 + l)) << "lane " << l;
  }
  // A node may be pinned only to a slot past the inputs.
  EXPECT_THROW(lower_to_tape(op, 4, std::vector<PinnedValue>{{given.id(), 3, true}}), Error);
}

TEST(IpTest, TapeLanesAreOneToMaxTapeLanesWide) {
  IpBuilder ip;
  ip.out(ip.in(0) + 1);
  const Tape tape = lower_to_tape(ip.finish("inc"), 1);
  EXPECT_THROW(TapeLanes(tape, 0), Error);
  EXPECT_THROW(TapeLanes(tape, kMaxTapeLanes + 1), Error);
  EXPECT_NO_THROW(TapeLanes(tape, kMaxTapeLanes));
}

}  // namespace
}  // namespace saclo::aol
