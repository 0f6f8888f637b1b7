#include "arrayol/hierarchy.hpp"

#include <gtest/gtest.h>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/frames.hpp"
#include "gaspard/chain.hpp"

namespace saclo::aol {
namespace {

using apps::DownscalerConfig;

RepetitiveTask copy_task(const std::string& in, const std::string& out, std::int64_t n) {
  RepetitiveTask t;
  t.name = "cp";
  t.repetition = Shape{n};
  TiledPort pi;
  pi.port = {in, Shape{n}};
  pi.pattern = Shape{1};
  pi.tiler.origin = {0};
  pi.tiler.fitting = IntMat{{1}};
  pi.tiler.paving = IntMat{{1}};
  t.inputs.push_back(std::move(pi));
  TiledPort po;
  po.port = {out, Shape{n}};
  po.pattern = Shape{1};
  po.tiler.origin = {0};
  po.tiler.fitting = IntMat{{1}};
  po.tiler.paving = IntMat{{1}};
  t.outputs.push_back(std::move(po));
  IpBuilder ip;
  ip.out(ip.in(0) + 1);
  t.op = ip.finish("inc");
  return t;
}

TEST(HierarchyTest, FlattensNestedInstances) {
  HierarchicalModel hm("Top");
  {
    Component& inc = hm.define("Inc");
    inc.add_array("a", Shape{8});
    inc.add_array("b", Shape{8});
    inc.mark_input("a");
    inc.mark_output("b");
    inc.add_task(copy_task("a", "b", 8));
  }
  {
    Component& twice = hm.define("Twice");
    twice.add_array("x", Shape{8});
    twice.add_array("tmp", Shape{8});
    twice.add_array("y", Shape{8});
    twice.mark_input("x");
    twice.mark_output("y");
    twice.add_instance(Instance{"first", "Inc", {{"a", "x"}, {"b", "tmp"}}});
    twice.add_instance(Instance{"second", "Inc", {{"a", "tmp"}, {"b", "y"}}});
  }
  {
    Component& top = hm.define("Top");
    top.add_array("in", Shape{8});
    top.add_array("out", Shape{8});
    top.mark_input("in");
    top.mark_output("out");
    top.add_instance(Instance{"t", "Twice", {{"x", "in"}, {"y", "out"}}});
  }
  Model flat = hm.flatten();
  EXPECT_NO_THROW(flat.validate());
  EXPECT_EQ(flat.tasks().size(), 2u);
  EXPECT_EQ(flat.tasks()[0].name, "t.first.cp");
  EXPECT_EQ(flat.tasks()[1].name, "t.second.cp");
  // The internal array got a unique flattened name.
  EXPECT_TRUE(flat.arrays().count("t.tmp"));

  const IntArray in = IntArray::generate(Shape{8}, [](const Index& i) { return i[0] * 5; });
  auto env = evaluate(flat, {{"in", in}});
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(env.at("out")[i], i * 5 + 2);
}

TEST(HierarchyTest, UnboundPortRejected) {
  HierarchicalModel hm("Top");
  Component& inc = hm.define("Inc");
  inc.add_array("a", Shape{4});
  inc.add_array("b", Shape{4});
  inc.mark_input("a");
  inc.mark_output("b");
  inc.add_task(copy_task("a", "b", 4));
  Component& top = hm.define("Top");
  top.add_array("in", Shape{4});
  top.mark_input("in");
  top.add_instance(Instance{"i", "Inc", {{"a", "in"}}});  // b unbound
  EXPECT_THROW(hm.flatten(), ModelError);
}

TEST(HierarchyTest, ShapeMismatchRejected) {
  HierarchicalModel hm("Top");
  Component& inc = hm.define("Inc");
  inc.add_array("a", Shape{4});
  inc.add_array("b", Shape{4});
  inc.mark_input("a");
  inc.mark_output("b");
  inc.add_task(copy_task("a", "b", 4));
  Component& top = hm.define("Top");
  top.add_array("in", Shape{8});  // wrong size
  top.add_array("out", Shape{4});
  top.mark_input("in");
  top.mark_output("out");
  top.add_instance(Instance{"i", "Inc", {{"a", "in"}, {"b", "out"}}});
  EXPECT_THROW(hm.flatten(), ModelError);
}

TEST(HierarchyTest, BindingInternalArrayRejected) {
  HierarchicalModel hm("Top");
  Component& inc = hm.define("Inc");
  inc.add_array("a", Shape{4});
  inc.add_array("b", Shape{4});
  inc.add_array("scratch", Shape{4});  // internal
  inc.mark_input("a");
  inc.mark_output("b");
  inc.add_task(copy_task("a", "b", 4));
  Component& top = hm.define("Top");
  top.add_array("in", Shape{4});
  top.add_array("out", Shape{4});
  top.mark_input("in");
  top.mark_output("out");
  top.add_instance(
      Instance{"i", "Inc", {{"a", "in"}, {"b", "out"}, {"scratch", "in"}}});
  EXPECT_THROW(hm.flatten(), ModelError);
}

TEST(HierarchyTest, InstantiationCycleRejected) {
  HierarchicalModel hm("A");
  Component& a = hm.define("A");
  a.add_array("p", Shape{4});
  a.mark_input("p");
  a.add_instance(Instance{"x", "B", {{"q", "p"}}});
  Component& b = hm.define("B");
  b.add_array("q", Shape{4});
  b.mark_input("q");
  b.add_instance(Instance{"y", "A", {{"p", "q"}}});
  EXPECT_THROW(hm.flatten(), ModelError);
}

TEST(HierarchyTest, HierarchicalDownscalerMatchesFlatModel) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  HierarchicalModel hm = apps::build_hierarchical_downscaler(cfg);
  Model flat = hm.flatten();
  EXPECT_NO_THROW(flat.validate());
  EXPECT_EQ(flat.tasks().size(), 6u);

  Model reference = apps::build_downscaler_model(cfg);
  std::map<std::string, IntArray> inputs;
  int ch = 0;
  for (const std::string& in : reference.inputs()) {
    inputs.emplace(in, apps::synthetic_channel(cfg.frame_shape(), 2, ch++));
  }
  const auto a = evaluate(flat, inputs);
  const auto b = evaluate(reference, inputs);
  for (const std::string& out : reference.outputs()) {
    EXPECT_EQ(a.at(out), b.at(out)) << out;
  }
}

TEST(HierarchyTest, FlattenedModelFeedsTheOpenClChain) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  Model flat = apps::build_hierarchical_downscaler(cfg).flatten();
  auto app = gaspard::OpenClApplication::build(flat);
  EXPECT_EQ(app.kernels().size(), 6u);
  // Kernel names carry the instance path (b.h.hf, ...).
  bool found = false;
  for (const auto& k : app.kernels()) {
    if (k.name.find("b.h.hf") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
  // And it runs, matching the reference evaluation.
  std::map<std::string, IntArray> inputs;
  int ch = 0;
  for (const std::string& in : flat.inputs()) {
    inputs.emplace(in, apps::synthetic_channel(cfg.frame_shape(), 0, ch++));
  }
  gpu::VirtualGpu gpu(gpu::gtx480(), 1);
  gpu::opencl::CommandQueue queue(gpu);
  const auto actual = app.run(queue, inputs, true);
  const auto expected = evaluate(flat, inputs);
  for (const auto& [name, arr] : actual) EXPECT_EQ(arr, expected.at(name)) << name;
}

}  // namespace
}  // namespace saclo::aol
