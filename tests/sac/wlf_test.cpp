#include "sac/wlf.hpp"

#include <gtest/gtest.h>

#include "sac/interp.hpp"
#include "sac/parser.hpp"
#include "sac/pipeline.hpp"
#include "sac/printer.hpp"

namespace saclo::sac {
namespace {

/// A miniature single-channel downscaler in the exact style of the
/// paper's Figures 4-7: generic input tiler, task, and both output
/// tilers. Frame 8x16 -> 8x6 (11-pixel pattern, paving 8, tiles of 3).
const char* kMiniDownscaler = R"(
int[*] zeros(int h, int w) {
  z = with { ([0,0] <= iv < [h,w]) : 0; } : genarray([h,w]);
  return (z);
}

int[*] input_tiler(int[*] in_frame, int[.] in_pattern, int[.] repetition,
                   int[.] origin, int[.,.] fitting, int[.,.] paving)
{
  output = with {
    (. <= rep <= .) {
      tile = with {
        (. <= pat <= .) {
          off = origin + MV( CAT( paving, fitting), rep++pat);
          iv = off % shape(in_frame);
          elem = in_frame[iv];
        } : elem;
      } : genarray( in_pattern, 0);
    } : tile;
  } : genarray( repetition);
  return( output);
}

int[*] task(int[*] input, int[.] out_pattern, int[.] repetition)
{
  output = with {
    (. <= rep <= .) {
      tile = with { (. <= pv <= .) : 0; } : genarray( out_pattern, 0);
      tmp0 = input[rep][0] + input[rep][1] + input[rep][2] +
             input[rep][3] + input[rep][4] + input[rep][5];
      tile[0] = tmp0 / 6 - tmp0 % 6;
      tmp1 = input[rep][2] + input[rep][3] + input[rep][4] +
             input[rep][5] + input[rep][6] + input[rep][7];
      tile[1] = tmp1 / 6 - tmp1 % 6;
      tmp2 = input[rep][5] + input[rep][6] + input[rep][7] +
             input[rep][8] + input[rep][9] + input[rep][10];
      tile[2] = tmp2 / 6 - tmp2 % 6;
    } : tile;
  } : genarray( repetition);
  return( output);
}

int[*] nongeneric_output_tiler(int[*] output, int[*] input)
{
  output = with {
    ([0,0]<=[i,j]<=. step [1,3]):input[[i,j/3,0]];
    ([0,1]<=[i,j]<=. step [1,3]):input[[i,j/3,1]];
    ([0,2]<=[i,j]<=. step [1,3]):input[[i,j/3,2]];
  } : modarray( output);
  return( output);
}

int[*] generic_output_tiler(int[*] out_frame, int[*] input,
                            int[.] out_pattern, int[.] repetition,
                            int[.] origin, int[.,.] fitting, int[.,.] paving)
{
  for( i=0; i< repetition[[0]]; i++) {
    for( j=0; j< repetition[[1]]; j++) {
      for( k=0; k< out_pattern[[0]]; k++) {
        off = origin + MV( CAT(paving, fitting), [i,j,k]);
        iv = off % shape( out_frame);
        out_frame[iv] = input[[i,j,k]];
      }
    }
  }
  return( out_frame);
}

int[*] hfilter_nongeneric(int[*] frame)
{
  gathered = input_tiler(frame, [11], [8,2], [0,0], [[0],[1]], [[1,0],[0,8]]);
  compressed = task(gathered, [3], [8,2]);
  base = zeros(8, 6);
  output = nongeneric_output_tiler(base, compressed);
  return( output);
}

int[*] hfilter_generic(int[*] frame)
{
  gathered = input_tiler(frame, [11], [8,2], [0,0], [[0],[1]], [[1,0],[0,8]]);
  compressed = task(gathered, [3], [8,2]);
  base = zeros(8, 6);
  output = generic_output_tiler(base, compressed, [3], [8,2], [0,0], [[0],[1]], [[1,0],[0,3]]);
  return( output);
}
)";

Module wrap(const FunDef& fn) {
  Module m;
  m.functions.push_back(FunDef{fn.name, fn.return_type, fn.params, clone_block(fn.body), fn.line});
  return m;
}

int count_top_level_withs(const std::vector<StmtPtr>& body) {
  int n = 0;
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::Assign && s->value && s->value->kind == ExprKind::With) ++n;
  }
  return n;
}

int count_for_stmts(const std::vector<StmtPtr>& body) {
  int n = 0;
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::For) ++n;
  }
  return n;
}

const Expr* first_with(const std::vector<StmtPtr>& body) {
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::Assign && s->value && s->value->kind == ExprKind::With) {
      return s->value.get();
    }
  }
  return nullptr;
}

TEST(ConcreteGeneratorTest, NormalisesBoundsAndWidths) {
  const ExprPtr e = parse_expression(
      "with { ([0,1] <= iv <= [7,19] step [1,3] width [1,3]) : 0; } : genarray([8,24])");
  auto cg = concrete_generator(e->generators[0]);
  ASSERT_TRUE(cg.has_value());
  EXPECT_EQ(cg->lb, (Index{0, 1}));
  EXPECT_EQ(cg->ub, (Index{8, 20}));  // inclusive -> exclusive
  // width==step collapses to a dense stride-1 dimension.
  EXPECT_EQ(cg->step, (Index{1, 1}));
  EXPECT_EQ(cg->width, (Index{1, 1}));
}

TEST(ConcreteGeneratorTest, PointsCountsLatticeSize) {
  const ExprPtr e = parse_expression(
      "with { ([0,0] <= iv < [8,24] step [1,3]) : 0; } : genarray([8,24])");
  auto cg = concrete_generator(e->generators[0]);
  ASSERT_TRUE(cg.has_value());
  EXPECT_EQ(cg->points(), 8 * 8);
}

TEST(WlfTest, FoldsNonGenericPipelineIntoOneWithLoop) {
  const Module m = parse(kMiniDownscaler);
  CompiledFunction cf =
      compile(m, "hfilter_nongeneric", {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  EXPECT_GT(cf.stats.folds, 0);
  EXPECT_GT(cf.stats.modarrays_converted, 0);
  // Everything fuses into a single with-loop assignment plus the return.
  EXPECT_EQ(count_top_level_withs(cf.fn.body), 1) << print(cf.fn);
  const Expr* w = first_with(cf.fn.body);
  ASSERT_NE(w, nullptr);
  // The residue-3 output generators survive, plus boundary splits from
  // the %-elimination (the paper's Figure 8 effect).
  EXPECT_GE(w->generators.size(), 3u);
  // No references to the intermediate arrays remain.
  const std::string text = print(cf.fn);
  EXPECT_EQ(text.find("gathered"), std::string::npos) << text;
  EXPECT_EQ(text.find("compressed"), std::string::npos) << text;
}

TEST(WlfTest, FoldedProgramComputesIdenticalResult) {
  const Module m = parse(kMiniDownscaler);
  const IntArray frame =
      IntArray::generate(Shape{8, 16}, [](const Index& i) { return i[0] * 31 + i[1] * 7 + 3; });
  const Value expected = run_function(m, "hfilter_nongeneric", {Value(frame)});

  CompiledFunction cf =
      compile(m, "hfilter_nongeneric", {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  const Value actual = run_function(wrap(cf.fn), "hfilter_nongeneric", {Value(frame)});
  EXPECT_EQ(expected, actual) << print(cf.fn);
}

TEST(WlfTest, ModSplitRemovesInteriorMods) {
  const Module m = parse(kMiniDownscaler);
  CompiledFunction cf =
      compile(m, "hfilter_nongeneric", {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  EXPECT_GT(cf.stats.mods_removed, 0);
  // The interior generators must have no column-wrap '% 16' left; only
  // boundary generators may keep it. (The task's arithmetic '% 6'
  // legitimately appears everywhere.)
  const Expr* w = first_with(cf.fn.body);
  ASSERT_NE(w, nullptr);
  int gens_with_wrap = 0;
  for (const Generator& g : w->generators) {
    const std::string t = print(*g.value) + print(g.body);
    if (t.find("% 16") != std::string::npos) ++gens_with_wrap;
  }
  EXPECT_GT(static_cast<int>(w->generators.size()), 3);  // boundary split happened
  EXPECT_LT(gens_with_wrap, static_cast<int>(w->generators.size()));
  // The row-wrap '% 8' is always provably redundant and must be gone.
  for (const Generator& g : w->generators) {
    const std::string t = print(*g.value) + print(g.body);
    EXPECT_EQ(t.find("% 8"), std::string::npos);
  }
}

TEST(WlfTest, GenericOutputTilerBlocksFolding) {
  const Module m = parse(kMiniDownscaler);
  CompiledFunction cf =
      compile(m, "hfilter_generic", {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  // The gather+task fuse, but the for-nest output tiler survives as a
  // loop — the paper's Section VII limitation.
  EXPECT_GE(count_top_level_withs(cf.fn.body), 1);
  EXPECT_EQ(count_for_stmts(cf.fn.body), 1) << print(cf.fn);
}

TEST(WlfTest, GenericPipelineComputesIdenticalResult) {
  const Module m = parse(kMiniDownscaler);
  const IntArray frame =
      IntArray::generate(Shape{8, 16}, [](const Index& i) { return (i[0] * 13 + i[1] * 5) % 97; });
  const Value expected = run_function(m, "hfilter_generic", {Value(frame)});
  CompiledFunction cf =
      compile(m, "hfilter_generic", {ArgSpec::array(ElemType::Int, Shape{8, 16})});
  const Value actual = run_function(wrap(cf.fn), "hfilter_generic", {Value(frame)});
  EXPECT_EQ(expected, actual) << print(cf.fn);
}

TEST(WlfTest, GenericAndNonGenericAgree) {
  const Module m = parse(kMiniDownscaler);
  const IntArray frame =
      IntArray::generate(Shape{8, 16}, [](const Index& i) { return i[0] * 17 + i[1]; });
  const Value a = run_function(m, "hfilter_generic", {Value(frame)});
  const Value b = run_function(m, "hfilter_nongeneric", {Value(frame)});
  EXPECT_EQ(a, b);
}

TEST(WlfTest, DisabledWlfKeepsPipelineStages) {
  const Module m = parse(kMiniDownscaler);
  CompileOptions opts;
  opts.enable_wlf = false;
  CompiledFunction cf =
      compile(m, "hfilter_nongeneric", {ArgSpec::array(ElemType::Int, Shape{8, 16})}, opts);
  EXPECT_EQ(cf.stats.folds, 0);
  // Input tiler, task and output tiler all survive.
  EXPECT_GE(count_top_level_withs(cf.fn.body), 3) << print(cf.fn);
  // And it still computes the right thing.
  const IntArray frame =
      IntArray::generate(Shape{8, 16}, [](const Index& i) { return i[0] + i[1]; });
  EXPECT_EQ(run_function(m, "hfilter_nongeneric", {Value(frame)}),
            run_function(wrap(cf.fn), "hfilter_nongeneric", {Value(frame)}));
}

TEST(WlfTest, SimpleMapMapFusion) {
  // The textbook WLF case: two elementwise maps fuse to one.
  const char* src = R"(
int[*] main(int[*] v) {
  a = with { (. <= iv <= .) : v[iv] * 2; } : genarray(shape(v));
  b = with { (. <= iv <= .) : a[iv] + 1; } : genarray(shape(v));
  return (b);
}
)";
  const Module m = parse(src);
  CompiledFunction cf = compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{10})});
  EXPECT_EQ(cf.stats.folds, 1);
  EXPECT_EQ(count_top_level_withs(cf.fn.body), 1) << print(cf.fn);
  const IntArray v = IntArray::generate(Shape{10}, [](const Index& i) { return i[0]; });
  EXPECT_EQ(run_function(wrap(cf.fn), "main", {Value(v)}),
            run_function(m, "main", {Value(v)}));
}

TEST(WlfTest, FoldAcrossProducerGeneratorsSplitsConsumer) {
  // Producer has two generators; the consumer reads with a shift, so
  // its single generator must split at the producer's boundary.
  const char* src = R"(
int[*] main(int[*] v) {
  a = with {
    ([0] <= iv < [6]) : v[iv] * 10;
    ([6] <= iv < [12]) : v[iv] * 100;
  } : genarray([12]);
  b = with { ([0] <= [i] < [10]) : a[[i + 2]]; } : genarray([10]);
  return (b);
}
)";
  const Module m = parse(src);
  CompiledFunction cf = compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{12})});
  EXPECT_GE(cf.stats.generator_splits, 1);
  const IntArray v = IntArray::generate(Shape{12}, [](const Index& i) { return i[0] + 1; });
  EXPECT_EQ(run_function(wrap(cf.fn), "main", {Value(v)}),
            run_function(m, "main", {Value(v)}));
}

TEST(WlfTest, DefaultRegionSubstituted) {
  // Consumer reads outside the producer's generators: the genarray
  // default must be substituted there.
  const char* src = R"(
int[*] main(int[*] v) {
  a = with { ([2] <= iv < [8]) : v[iv]; } : genarray([8], -5);
  b = with { ([0] <= [i] < [8]) : a[[i]] * 2; } : genarray([8]);
  return (b);
}
)";
  const Module m = parse(src);
  CompiledFunction cf = compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{8})});
  const IntArray v = IntArray::generate(Shape{8}, [](const Index& i) { return i[0] * 3; });
  const Value out = run_function(wrap(cf.fn), "main", {Value(v)});
  EXPECT_EQ(out.ints()[0], -10);
  EXPECT_EQ(out.ints()[1], -10);
  EXPECT_EQ(out.ints()[2], 12);
  EXPECT_EQ(run_function(m, "main", {Value(v)}), out);
}

TEST(WlfTest, SteppedProducerResidueMatching) {
  // Producer writes only even positions; consumer reads 2*i (always
  // even) — fold must hit the generator, never the default.
  const char* src = R"(
int[*] main(int[*] v) {
  a = with { ([0] <= iv < [16] step [2]) : v[iv] + 1000; } : genarray([16], 0);
  b = with { ([0] <= [i] < [8]) : a[[2 * i]]; } : genarray([8]);
  return (b);
}
)";
  const Module m = parse(src);
  CompiledFunction cf = compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{16})});
  const IntArray v = IntArray::generate(Shape{16}, [](const Index& i) { return i[0]; });
  const Value out = run_function(wrap(cf.fn), "main", {Value(v)});
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(out.ints()[i], 2 * i + 1000);
  EXPECT_EQ(run_function(m, "main", {Value(v)}), out);
}

TEST(DceTest, RemovesUnusedProducers) {
  const char* src = R"(
int[*] main(int[*] v) {
  unused = with { (. <= iv <= .) : v[iv] * 9; } : genarray(shape(v));
  b = with { (. <= iv <= .) : v[iv] + 1; } : genarray(shape(v));
  return (b);
}
)";
  const Module m = parse(src);
  CompiledFunction cf = compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{4})});
  EXPECT_EQ(count_top_level_withs(cf.fn.body), 1);
  EXPECT_EQ(print(cf.fn).find("unused"), std::string::npos);
}

TEST(DceTest, KeptLoopKeepsTheArraysItStoresInto) {
  // The loop stores into P, which nothing reads afterwards: the loop is
  // kept for O, and its store into P reads P, so `P = C;` must stay.
  const char* src = R"(
int[*] main(int[*] A, int[*] B, int[*] C) {
  O = B;
  P = C;
  for (i = 0; i < 3; i = i + 1) {
    O[[i, 0]] = B[[i, 1]];
    P[[i, 0]] = i;
  }
  return (O);
}
)";
  const Module m = parse(src);
  const std::vector<ArgSpec> args(3, ArgSpec::array(ElemType::Int, Shape{3, 3}));
  CompileOptions no_wlf;
  no_wlf.enable_wlf = false;
  const CompiledFunction with = compile(m, "main", args);
  const CompiledFunction without = compile(m, "main", args, no_wlf);
  EXPECT_NE(print(with.fn).find("P = C"), std::string::npos) << print(with.fn);
  const IntArray frame =
      IntArray::generate(Shape{3, 3}, [](const Index& i) { return i[0] * 3 + i[1]; });
  const std::vector<Value> in = {Value(frame), Value(frame), Value(frame)};
  EXPECT_EQ(run_function(wrap(with.fn), "main", in), run_function(wrap(without.fn), "main", in));
}

TEST(ModarrayConversionTest, FullCoverageBecomesGenarray) {
  const char* src = R"(
int[*] main(int[*] v) {
  base = with { ([0,0] <= iv < [4,6]) : 0; } : genarray([4,6]);
  out = with {
    ([0,0] <= [i,j] <= . step [1,2]) : v[[i, j/2]];
    ([0,1] <= [i,j] <= . step [1,2]) : v[[i, j/2]] * 2;
  } : modarray(base);
  return (out);
}
)";
  const Module m = parse(src);
  CompiledFunction cf = compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{4, 3})});
  EXPECT_EQ(cf.stats.modarrays_converted, 1);
  const Expr* w = first_with(cf.fn.body);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->op.kind, WithOpKind::Genarray);
  const IntArray v =
      IntArray::generate(Shape{4, 3}, [](const Index& i) { return i[0] * 10 + i[1]; });
  EXPECT_EQ(run_function(wrap(cf.fn), "main", {Value(v)}),
            run_function(m, "main", {Value(v)}));
}

TEST(ModarrayConversionTest, PartialCoverageStaysModarray) {
  const char* src = R"(
int[*] main(int[*] v) {
  base = with { ([0] <= iv < [8]) : 7; } : genarray([8]);
  out = with { ([0] <= [i] < [8] step [2]) : v[[i]]; } : modarray(base);
  return (out);
}
)";
  const Module m = parse(src);
  CompiledFunction cf = compile(m, "main", {ArgSpec::array(ElemType::Int, Shape{8})});
  EXPECT_EQ(cf.stats.modarrays_converted, 0);
  const IntArray v = IntArray::generate(Shape{8}, [](const Index& i) { return i[0]; });
  EXPECT_EQ(run_function(wrap(cf.fn), "main", {Value(v)}),
            run_function(m, "main", {Value(v)}));
}

}  // namespace
}  // namespace saclo::sac
