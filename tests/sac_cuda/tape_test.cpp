#include "sac_cuda/tape.hpp"

#include <gtest/gtest.h>

#include "apps/downscaler/config.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "sac/parser.hpp"
#include "support/tape_poison.hpp"

namespace saclo::sac_cuda {
namespace {

Tape compile_or_die(const std::string& fn_src, const std::vector<std::string>& index_vars,
                    const std::map<std::string, Index>& arrays) {
  const sac::Module m = sac::parse(fn_src);
  const auto& body = m.functions[0].body;
  std::vector<const sac::Expr*> results;
  results.push_back(body.back()->value.get());  // the return expression
  std::vector<sac::StmtPtr> stmts;
  for (std::size_t i = 0; i + 1 < body.size(); ++i) stmts.push_back(body[i]->clone());
  auto tape = compile_tape(stmts, results, index_vars, arrays);
  EXPECT_TRUE(tape.has_value());
  return tape ? std::move(*tape) : Tape{};
}

/// Runs `t` for one item whose index variables take `ivs`: the
/// one-lane case of a block run. Returns the result slots' values.
std::vector<std::int64_t> run_one(const Tape& t, const Index& ivs,
                                  std::span<const TapeArray> arrays = {}) {
  TapeLanes lanes(t, kLanes);
  for (std::size_t d = 0; d < ivs.size(); ++d) lanes.slot(t.input_slots[d])[0] = ivs[d];
  t.run(lanes, 1, arrays);
  std::vector<std::int64_t> out;
  for (int rs : t.result_slots) out.push_back(lanes.slot(rs)[0]);
  return out;
}

TEST(TapeTest, ScalarArithmetic) {
  Tape t = compile_or_die("int f(int i) { a = i * 3 + 1; return (a - 2); }", {"i"}, {});
  EXPECT_EQ(run_one(t, {5}), std::vector<std::int64_t>{14});
}

TEST(TapeTest, ArrayLoads) {
  std::map<std::string, Index> arrays{{"frame", {4, 8}}};
  Tape t = compile_or_die("int f(int i, int j) { return (frame[[i, j + 1]]); }", {"i", "j"},
                          arrays);
  std::vector<std::int32_t> data(32);
  for (int k = 0; k < 32; ++k) data[static_cast<std::size_t>(k)] = 100 + k;
  TapeArray ta{std::span<const std::int32_t>(data), {4, 8}, Shape({4, 8}).strides()};
  EXPECT_EQ(run_one(t, {2, 3}, {&ta, 1}), std::vector<std::int64_t>{100 + 2 * 8 + 4});
  EXPECT_EQ(t.array_loads(), 1);
}

TEST(TapeTest, OutOfBoundsLoadThrows) {
  std::map<std::string, Index> arrays{{"v", {4}}};
  Tape t = compile_or_die("int f(int i) { return (v[i]); }", {"i"}, arrays);
  std::vector<std::int32_t> data(4);
  TapeArray ta{std::span<const std::int32_t>(data), {4}, {1}};
  EXPECT_THROW(run_one(t, {4}, {&ta, 1}), Error);
}

TEST(TapeTest, MinMaxAbs) {
  Tape t = compile_or_die("int f(int i) { return (min(max(i, 0), 10) + abs(0 - i)); }", {"i"},
                          {});
  EXPECT_EQ(run_one(t, {-3}), std::vector<std::int64_t>{0 + 3});
}

TEST(TapeTest, DivisionByZeroThrows) {
  Tape t = compile_or_die("int f(int i) { return (10 / i); }", {"i"}, {});
  EXPECT_THROW(run_one(t, {0}), Error);
}

TEST(TapeTest, RejectsFloats) {
  const sac::Module m = sac::parse("float f(int i) { return (1.5); }");
  std::vector<const sac::Expr*> results{m.functions[0].body[0]->value.get()};
  EXPECT_FALSE(compile_tape({}, results, {"i"}, {}).has_value());
}

TEST(TapeTest, RejectsUnknownArrays) {
  const sac::Module m = sac::parse("int f(int i) { return (mystery[i]); }");
  std::vector<const sac::Expr*> results{m.functions[0].body[0]->value.get()};
  EXPECT_FALSE(compile_tape({}, results, {"i"}, {}).has_value());
}

TEST(TapeTest, ArithOpCountsForCostModel) {
  Tape t = compile_or_die("int f(int i) { a = i + 1; b = a * 2; return (b - a); }", {"i"}, {});
  EXPECT_EQ(t.arith_ops(), 3);
  EXPECT_EQ(t.array_loads(), 0);
}

TEST(TapeTest, MultipleResults) {
  const sac::Module m = sac::parse("int f(int i) { a = i + 1; return (a); }");
  std::vector<sac::StmtPtr> stmts;
  stmts.push_back(m.functions[0].body[0]->clone());
  const sac::ExprPtr r0 = sac::parse_expression("a * 10");
  const sac::ExprPtr r1 = sac::parse_expression("a * 100");
  auto tape = compile_tape(stmts, {r0.get(), r1.get()}, {"i"}, {});
  ASSERT_TRUE(tape.has_value());
  EXPECT_EQ(run_one(*tape, {4}), (std::vector<std::int64_t>{50, 500}));
}

TEST(TapeTest, DeepTapesGetAStackOfTheirOwnDepth) {
  // i + (i + (... (i + i))): every operand is pushed before the first
  // add, 81 deep — deeper than any fixed stack the interpreter might
  // keep.
  std::string expr = "i";
  for (int level = 0; level < 80; ++level) expr = "(i + " + expr + ")";
  Tape t = compile_or_die("int f(int i) { return " + expr + "; }", {"i"}, {});
  EXPECT_EQ(t.max_depth, 81);
  EXPECT_EQ(t.to_string().rfind("max_depth 81\n", 0), 0u);
  EXPECT_EQ(run_one(t, {3}), std::vector<std::int64_t>{81 * 3});
  TapeLanes lanes(t, kLanes);
  for (int l = 0; l < kLanes; ++l) lanes.slot(t.input_slots[0])[l] = l - 7;
  t.run(lanes, kLanes, {});
  for (int l = 0; l < kLanes; ++l) EXPECT_EQ(lanes.slot(t.result_slots[0])[l], 81 * (l - 7));
}

TEST(TapeTest, TheLowestFailingLaneWinsOverTheFirstFailingInstruction) {
  // Over lanes i = 0..7, lane 5 divides by zero first; lane 3 reads out
  // of bounds at a later instruction. Item by item, item 3 fails first.
  std::map<std::string, Index> arrays{{"v", {3}}};
  Tape t = compile_or_die("int f(int i) { d = 10 / (i - 5); return (v[i] + d); }", {"i"},
                          arrays);
  const std::vector<std::int32_t> data{7, 8, 9};
  const TapeArray ta{std::span<const std::int32_t>(data), {3}, {1}};
  TapeLanes lanes(t, kLanes);
  for (int l = 0; l < 8; ++l) lanes.slot(t.input_slots[0])[l] = l;
  try {
    t.run(lanes, 8, {&ta, 1});
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "tape: index 3 out of bounds for dim 0 extent 3");
  }
  // The lanes below the failing one ran to the end.
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(lanes.slot(t.result_slots[0])[l], data[static_cast<std::size_t>(l)] + 10 / (l - 5));
  }
  // Without lane 3 and 4 the division error is the block's.
  lanes.slot(t.input_slots[0])[3] = 2;
  lanes.slot(t.input_slots[0])[4] = 1;
  try {
    t.run(lanes, 8, {&ta, 1});
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "tape: division by zero");
  }
}

// The oracles prove that no tape reads a slot or stack row before it
// writes it by running on poisoned scratch. A tape that does read one
// (slot 1 is never stored) must show it: zero on rows of its own, a
// distinct poison value per lane on scratch.
TEST(TapeTest, PoisonedScratchShowsAReadBeforeAWrite) {
  Tape t;
  t.code = {{TapeOp::LoadSlot, 1}, {TapeOp::StoreSlot, 0}};
  t.slot_count = 2;
  t.result_slots = {0};
  t.measure_depth();
  TapeLanes own(t, 4);
  t.run(own, 4, {});
  for (int l = 0; l < 4; ++l) EXPECT_EQ(own.slot(0)[l], 0);
  const testsupport::PoisonedTapeScratch poisoned;
  TapeLanes scratch(t, 4, TapeLanes::ThreadScratch{});
  t.run(scratch, 4, {});
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(scratch.slot(0)[l], testsupport::PoisonedTapeScratch::kPattern + 4 + l) << l;
  }
}

TEST(TapeTest, OpsHaveNamesInTheListing) {
  Tape t = compile_or_die(
      "int f(int i) { return (-(i / 2) % 3 + abs(i) * min(i, 1) - max(i, 2)); }", {"i"}, {});
  EXPECT_EQ(t.to_string(),
            "max_depth 4\n"
            "load s0\npush 2\ndiv\nneg\npush 3\nmod\nload s0\nabs\nload s0\npush 1\n"
            "min\nmul\nadd\nload s0\npush 2\nmax\nsub\nstore s1\n");
}

TEST(TapeTest, PaperChainTapeListing) {
  // The first H kernel of the paper chain, as the host runs it: a
  // change to what the paper's tape does shows up as a diff of this
  // listing.
  apps::SacDownscaler::Options opts;
  const apps::SacDownscaler sd(apps::DownscalerConfig::paper(), opts);
  const GenKernel* kernel = nullptr;
  for (const Step& step : sd.program().steps()) {
    for (const GenKernel& k : step.group.kernels) {
      if (k.name == "downscale_nongeneric_w0_g0") kernel = &k;
    }
  }
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->tape.to_string(),
            "max_depth 2\n"
            "ldlin in_frame #0\nldlin in_frame #1\nadd\nldlin in_frame #2\nadd\n"
            "ldlin in_frame #3\nadd\nldlin in_frame #4\nadd\nldlin in_frame #5\nadd\n"
            "store s3\nload s3\ndivi 6\nload s3\nmodi 6\nsub\nstore s4\n");
}

}  // namespace
}  // namespace saclo::sac_cuda
