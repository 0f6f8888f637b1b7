#include "opt/transform.hpp"

#include <gtest/gtest.h>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"

namespace saclo::opt {
namespace {

using apps::DownscalerConfig;

std::map<std::string, IntArray> downscaler_inputs(const aol::Model& model) {
  std::map<std::string, IntArray> inputs;
  for (const std::string& in : model.inputs()) {
    const Shape& shape = model.array_shape(in);
    inputs.emplace(in, IntArray::generate(shape, [&](const Index& idx) {
      std::int64_t v = 17;
      for (std::int64_t d : idx) v = v * 31 + d;
      return (v % 251) + static_cast<std::int64_t>(in.size());
    }));
  }
  return inputs;
}

/// The semantic equivalence every accepted rewrite must satisfy: same
/// model outputs, element for element.
void expect_same_outputs(const aol::Model& before, const aol::Model& after) {
  const auto inputs = downscaler_inputs(before);
  const auto ref = aol::evaluate(before, inputs);
  const auto got = aol::evaluate(after, inputs);
  ASSERT_EQ(before.outputs(), after.outputs());
  for (const std::string& out : before.outputs()) {
    EXPECT_EQ(ref.at(out), got.at(out)) << "output '" << out << "' diverged";
  }
}

/// A rank-1 copy chain with block-aligned tilers: in -> mid -> out.
/// The consumer reads `blocks` whole producer patterns per instance
/// (origin `skew` shifts it off block boundaries when nonzero).
aol::Model copy_chain(std::int64_t n, std::int64_t p, std::int64_t blocks, std::int64_t skew) {
  aol::Model m("CopyChain");
  m.add_array("in", Shape{n});
  m.add_array("mid", Shape{n});
  m.add_array("out", Shape{n});
  m.mark_input("in");
  m.mark_output("out");

  // out[i] = in[i] + 1 over `elements` elements.
  auto copy_op = [](std::int64_t elements) {
    aol::IpBuilder ip;
    for (std::int64_t i = 0; i < elements; ++i) ip.out(ip.in(i) + 1);
    return ip.finish("copy");
  };

  aol::RepetitiveTask producer;
  producer.name = "producer";
  producer.repetition = Shape{n / p};
  producer.inputs.push_back({{"in", Shape{n}}, Shape{p}, {{0}, IntMat{{1}}, IntMat{{p}}}});
  producer.outputs.push_back({{"mid", Shape{n}}, Shape{p}, {{0}, IntMat{{1}}, IntMat{{p}}}});
  producer.op = copy_op(p);
  m.add_task(std::move(producer));

  const std::int64_t chunk = blocks * p;
  aol::RepetitiveTask consumer;
  consumer.name = "consumer";
  consumer.repetition = Shape{n / chunk};
  // Pattern {blocks, p}: the block structure is a pattern dimension of
  // its own, so a whole-instance read is affine per coordinate.
  consumer.inputs.push_back(
      {{"mid", Shape{n}}, Shape{blocks, p}, {{skew}, IntMat{{p, 1}}, IntMat{{chunk}}}});
  consumer.outputs.push_back(
      {{"out", Shape{n}}, Shape{chunk}, {{0}, IntMat{{1}}, IntMat{{chunk}}}});
  consumer.op = copy_op(chunk);
  m.add_task(std::move(consumer));

  m.validate();
  return m;
}

TEST(PavingChange, PreservesEvaluationOnDownscaler) {
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  const RewriteResult r = try_change_paving(model, "yvf", 1, 3);
  ASSERT_TRUE(r.legality.ok) << r.legality.reason;
  expect_same_outputs(model, *r.model);
  // The repetition shrank; the patterns grew a leading split dimension.
  const aol::RepetitiveTask& vf = r.model->tasks()[1];
  EXPECT_EQ(vf.repetition, (Shape{2, 4}));
  EXPECT_EQ(vf.inputs[0].pattern, (Shape{3, 13}));
  EXPECT_EQ(vf.outputs[0].pattern, (Shape{3, 4}));
}

TEST(PavingChange, PreservesEvaluationOnEveryLegalFactor) {
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  for (const std::string task : {"yhf", "yvf"}) {
    const Shape rep = task == "yhf" ? DownscalerConfig::tiny().h_repetition()
                                    : DownscalerConfig::tiny().v_repetition();
    for (std::size_t d = 0; d < rep.rank(); ++d) {
      for (std::int64_t k = 2; k <= rep[d]; ++k) {
        if (rep[d] % k != 0) continue;
        const RewriteResult r = try_change_paving(model, task, d, k);
        ASSERT_TRUE(r.legality.ok)
            << task << " dim " << d << " factor " << k << ": " << r.legality.reason;
        expect_same_outputs(model, *r.model);
      }
    }
  }
}

TEST(PavingChange, RejectsNonDividingFactor) {
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  const RewriteResult r = try_change_paving(model, "yvf", 1, 5);
  ASSERT_FALSE(r.legality.ok);
  EXPECT_NE(r.legality.reason.find("does not divide"), std::string::npos) << r.legality.reason;
  EXPECT_FALSE(r.model.has_value());
}

TEST(PavingChange, RejectsUnknownTaskAndBadDimension) {
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  EXPECT_FALSE(try_change_paving(model, "nope", 0, 2).legality.ok);
  const RewriteResult r = try_change_paving(model, "yvf", 7, 2);
  ASSERT_FALSE(r.legality.ok);
  EXPECT_NE(r.legality.reason.find("no dimension"), std::string::npos);
}

TEST(Fusion, DirectDownscalerFusionIsIllegal) {
  // The vertical filter reads columns of `mid` produced 3-at-a-time by
  // the horizontal filter: without a paving change the pattern slot
  // depends on the repetition index, which fusion must detect.
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  const RewriteResult r = try_fuse(model, "mid_y");
  ASSERT_FALSE(r.legality.ok);
  EXPECT_NE(r.legality.reason.find("incompatible paving/fitting"), std::string::npos)
      << r.legality.reason;
}

TEST(Fusion, LegalAfterEnablingPavingChange) {
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  const RewriteResult pv = try_change_paving(model, "yvf", 1, 3);
  ASSERT_TRUE(pv.legality.ok) << pv.legality.reason;
  const RewriteResult fz = try_fuse(*pv.model, "mid_y");
  ASSERT_TRUE(fz.legality.ok) << fz.legality.reason;
  ASSERT_EQ(fz.model->tasks().size(), 1u);
  EXPECT_EQ(fz.model->arrays().count("mid_y"), 0u);
  // Fused geometry: 13 producer instances of 11 pixels each feed one
  // consumer instance.
  const aol::RepetitiveTask& fused = fz.model->tasks()[0];
  EXPECT_EQ(fused.name, "yhf_yvf");
  EXPECT_EQ(fused.inputs[0].pattern, (Shape{13, 11}));
  expect_same_outputs(model, *fz.model);
}

TEST(Fusion, RejectsModelInputAndOutputArrays) {
  const aol::Model model = apps::build_single_channel_model(DownscalerConfig::tiny());
  const RewriteResult in = try_fuse(model, "frame_y");
  ASSERT_FALSE(in.legality.ok);
  EXPECT_NE(in.legality.reason.find("model input"), std::string::npos);
  const RewriteResult out = try_fuse(model, "out_y");
  ASSERT_FALSE(out.legality.ok);
  EXPECT_NE(out.legality.reason.find("model output"), std::string::npos);
  EXPECT_FALSE(try_fuse(model, "no_such_array").legality.ok);
}

TEST(Fusion, AlignedCopyChainFusesAndMisalignedDoesNot) {
  const aol::Model aligned = copy_chain(96, 4, 3, 0);
  const RewriteResult ok = try_fuse(aligned, "mid");
  ASSERT_TRUE(ok.legality.ok) << ok.legality.reason;
  ASSERT_EQ(ok.model->tasks().size(), 1u);
  expect_same_outputs(aligned, *ok.model);

  // A skewed consumer reads across producer-pattern boundaries; the
  // exhaustive check must refuse.
  const aol::Model skewed = copy_chain(96, 4, 3, 1);
  const RewriteResult bad = try_fuse(skewed, "mid");
  ASSERT_FALSE(bad.legality.ok);
  EXPECT_NE(bad.legality.reason.find("incompatible paving/fitting"), std::string::npos)
      << bad.legality.reason;
}

TEST(Fusion, RejectsMultiConsumerIntermediate) {
  aol::Model m = copy_chain(32, 4, 2, 0);
  // Second consumer of `mid`.
  aol::RepetitiveTask extra = m.tasks()[1];
  extra.name = "consumer2";
  m.add_array("out2", Shape{32});
  m.mark_output("out2");
  extra.outputs[0].port.name = "out2";
  m.add_task(std::move(extra));
  m.validate();
  const RewriteResult r = try_fuse(m, "mid");
  ASSERT_FALSE(r.legality.ok);
  EXPECT_NE(r.legality.reason.find("consumed through 2 ports"), std::string::npos)
      << r.legality.reason;
}

TEST(InverseMapCache, ReusesOnlyAnIdenticalProducerGeometry) {
  // Two exact partitions of a 2x6 array into 3-element row tiles that
  // differ only in their origin: same pattern, repetition and array
  // shape, different inverse maps.
  aol::TiledPort port;
  port.pattern = Shape{3};
  port.tiler.origin = {0, 0};
  port.tiler.fitting = IntMat{{0}, {1}};
  port.tiler.paving = IntMat{{1, 0}, {0, 3}};
  const Shape array{2, 6};
  const Shape repetition{2, 2};
  aol::TiledPort shifted = port;
  shifted.tiler.origin = {0, 1};

  InverseMapCache cache;
  const InverseMap& a = cache.get(port, array, repetition);
  const InverseMap& b = cache.get(shifted, array, repetition);
  EXPECT_EQ(&cache.get(port, array, repetition), &a);
  EXPECT_NE(&b, &a);
  // Element [0,0] is slot 0 of instance 0 unshifted; shifted by one it
  // is the last slot of instance [0,1] (the tile wraps around the row).
  EXPECT_EQ(a.rep[0], 0);
  EXPECT_EQ(a.pat[0], 0);
  EXPECT_EQ(b.rep[0], 1);
  EXPECT_EQ(b.pat[0], 2);
}

TEST(Merge, IndependentChannelsMerge) {
  const aol::Model model = apps::build_downscaler_model(DownscalerConfig::tiny());
  const RewriteResult r = try_merge(model, "bhf", "ghf");
  ASSERT_TRUE(r.legality.ok) << r.legality.reason;
  EXPECT_EQ(r.model->tasks().size(), model.tasks().size() - 1);
  expect_same_outputs(model, *r.model);
}

TEST(Merge, RejectsDependentTasksAndShapeMismatch) {
  const aol::Model chain = copy_chain(32, 4, 1, 0);
  // blocks=1 gives both tasks the same repetition space, but the
  // consumer depends on the producer.
  const RewriteResult dep = try_merge(chain, "producer", "consumer");
  ASSERT_FALSE(dep.legality.ok);
  EXPECT_NE(dep.legality.reason.find("depends on"), std::string::npos) << dep.legality.reason;

  const aol::Model ds = apps::build_downscaler_model(DownscalerConfig::tiny());
  const RewriteResult shape = try_merge(ds, "bhf", "gvf");
  ASSERT_FALSE(shape.legality.ok);
  EXPECT_NE(shape.legality.reason.find("repetition spaces differ"), std::string::npos);
  EXPECT_FALSE(try_merge(ds, "bhf", "bhf").legality.ok);
}

}  // namespace
}  // namespace saclo::opt
