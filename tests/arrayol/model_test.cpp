#include "arrayol/model.hpp"

#include <gtest/gtest.h>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "apps/downscaler/frames.hpp"

namespace saclo::aol {
namespace {

using apps::DownscalerConfig;

/// A toy model: one task doubling 4-element blocks of a 16-vector.
Model toy_model() {
  Model m("toy");
  m.add_array("in", Shape{16});
  m.add_array("out", Shape{16});
  m.mark_input("in");
  m.mark_output("out");
  RepetitiveTask t;
  t.name = "dbl";
  t.repetition = Shape{4};
  TiledPort in;
  in.port = {"in", Shape{16}};
  in.pattern = Shape{4};
  in.tiler.origin = {0};
  in.tiler.fitting = IntMat{{1}};
  in.tiler.paving = IntMat{{4}};
  t.inputs.push_back(std::move(in));
  TiledPort out;
  out.port = {"out", Shape{16}};
  out.pattern = Shape{4};
  out.tiler.origin = {0};
  out.tiler.fitting = IntMat{{1}};
  out.tiler.paving = IntMat{{4}};
  t.outputs.push_back(std::move(out));
  IpBuilder ip;
  for (std::int64_t k = 0; k < 4; ++k) ip.out(ip.in(k) * 2);
  t.op = ip.finish("double");
  m.add_task(std::move(t));
  return m;
}

TEST(ModelTest, ToyModelValidatesAndEvaluates) {
  Model m = toy_model();
  EXPECT_NO_THROW(m.validate());
  IntArray in = IntArray::generate(Shape{16}, [](const Index& i) { return i[0] + 1; });
  auto env = evaluate(m, {{"in", in}});
  const IntArray& out = env.at("out");
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(out[i], 2 * (i + 1));
}

TEST(ModelTest, NonPartitionOutputTilerRejected) {
  Model m("bad");
  m.add_array("in", Shape{16});
  m.add_array("out", Shape{16});
  m.mark_input("in");
  m.mark_output("out");
  RepetitiveTask t;
  t.name = "bad";
  t.repetition = Shape{4};
  TiledPort in;
  in.port = {"in", Shape{16}};
  in.pattern = Shape{4};
  in.tiler.origin = {0};
  in.tiler.fitting = IntMat{{1}};
  in.tiler.paving = IntMat{{4}};
  t.inputs.push_back(std::move(in));
  TiledPort out;
  out.port = {"out", Shape{16}};
  out.pattern = Shape{4};
  out.tiler.origin = {0};
  out.tiler.fitting = IntMat{{1}};
  out.tiler.paving = IntMat{{2}};  // overlapping writes!
  t.outputs.push_back(std::move(out));
  m.add_task(std::move(t));
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(ModelTest, DuplicateArrayRejected) {
  Model m("dup");
  m.add_array("a", Shape{4});
  EXPECT_THROW(m.add_array("a", Shape{4}), ModelError);
}

TEST(ModelTest, UnknownInputRejected) {
  Model m("x");
  EXPECT_THROW(m.mark_input("ghost"), ModelError);
}

TEST(ModelTest, WrongPortShapeRejected) {
  Model m = toy_model();
  Model bad("bad2");
  bad.add_array("in", Shape{16});
  bad.add_array("out", Shape{16});
  bad.mark_input("in");
  bad.mark_output("out");
  RepetitiveTask t;
  t.name = "t";
  t.repetition = Shape{4};
  TiledPort in;
  in.port = {"in", Shape{8}};  // wrong shape
  in.pattern = Shape{4};
  in.tiler.origin = {0};
  in.tiler.fitting = IntMat{{1}};
  in.tiler.paving = IntMat{{4}};
  t.inputs.push_back(std::move(in));
  bad.add_task(std::move(t));
  EXPECT_THROW(bad.validate(), ModelError);
}

TEST(ModelTest, ScheduleRespectsDependences) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  Model m = apps::build_downscaler_model(cfg);
  const auto order = m.schedule();
  ASSERT_EQ(order.size(), 6u);
  // Every vf task must come after its channel's hf task.
  std::map<std::string, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[m.tasks()[order[i]].name] = i;
  for (const char* ch : {"b", "g", "r"}) {
    EXPECT_LT(pos.at(std::string(ch) + "hf"), pos.at(std::string(ch) + "vf"));
  }
}

TEST(ModelTest, CycleDetected) {
  Model m("cycle");
  m.add_array("a", Shape{4});
  m.add_array("b", Shape{4});
  auto mk = [&](const std::string& name, const std::string& in_arr, const std::string& out_arr) {
    RepetitiveTask t;
    t.name = name;
    t.repetition = Shape{4};
    TiledPort in;
    in.port = {in_arr, Shape{4}};
    in.pattern = Shape{1};
    in.tiler.origin = {0};
    in.tiler.fitting = IntMat{{1}};
    in.tiler.paving = IntMat{{1}};
    t.inputs.push_back(std::move(in));
    TiledPort out;
    out.port = {out_arr, Shape{4}};
    out.pattern = Shape{1};
    out.tiler.origin = {0};
    out.tiler.fitting = IntMat{{1}};
    out.tiler.paving = IntMat{{1}};
    t.outputs.push_back(std::move(out));
      m.add_task(std::move(t));
  };
  mk("t1", "a", "b");
  mk("t2", "b", "a");
  EXPECT_THROW(m.schedule(), ModelError);
}

TEST(ModelTest, DownscalerModelMatchesPaperGeometry) {
  const DownscalerConfig cfg = DownscalerConfig::paper();
  Model m = apps::build_downscaler_model(cfg);
  EXPECT_NO_THROW(m.validate());
  ASSERT_EQ(m.tasks().size(), 6u);
  // The paper's Figure 10: repetition space {1080, 240} for the
  // horizontal filter of a 1080x1920 frame.
  for (const RepetitiveTask& t : m.tasks()) {
    if (t.name.find("hf") != std::string::npos) {
      EXPECT_EQ(t.repetition, (Shape{1080, 240}));
      EXPECT_EQ(t.inputs[0].pattern, (Shape{11}));
      EXPECT_EQ(t.outputs[0].pattern, (Shape{3}));
    } else {
      EXPECT_EQ(t.repetition, (Shape{120, 720}));
    }
  }
  EXPECT_EQ(m.array_shape("mid_b"), (Shape{1080, 720}));
  EXPECT_EQ(m.array_shape("out_b"), (Shape{480, 720}));
}

TEST(ModelTest, DownscalerEvaluatesAtTinyScale) {
  const DownscalerConfig cfg = DownscalerConfig::tiny();
  Model m = apps::build_single_channel_model(cfg);
  const IntArray frame = apps::synthetic_channel(cfg.frame_shape(), 0, 0);
  auto env = evaluate(m, {{"frame_y", frame}});
  const IntArray& out = env.at("out_y");
  EXPECT_EQ(out.shape(), cfg.out_shape());
  // Hand-check one output pixel: out(0,0) comes from mid row 0,
  // columns window {0..5} of mid(0,.), which in turn come from frame.
  // (Full cross-checks against the SaC pipelines are in the apps tests.)
  std::int64_t any_nonzero = 0;
  for (std::int64_t i = 0; i < out.elements(); ++i) any_nonzero += out[i] != 0;
  EXPECT_GT(any_nonzero, 0);
}

}  // namespace
}  // namespace saclo::aol
