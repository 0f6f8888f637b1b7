#include "apps/downscaler/arrayol_model.hpp"

#include "core/fmt.hpp"

namespace saclo::apps {

using aol::Model;
using aol::RepetitiveTask;
using aol::TiledPort;

aol::ElementaryOp downscale_op(const FilterSpec& spec) {
  // Output k sums the window from input starts[k] into tmp, from 0 as
  // the paper's loop does, then takes tmp / window - tmp % window.
  aol::IpBuilder ip;
  for (const std::int64_t start : spec.window_starts) {
    aol::IpValue tmp = ip.lit(0);
    for (std::int64_t w = 0; w < spec.window; ++w) tmp = tmp + ip.in(start + w);
    ip.out(tmp / spec.window - tmp % spec.window);
  }
  return ip.finish(cat("downscale", spec.window, "tap"));
}

namespace {

void add_channel(Model& model, const DownscalerConfig& cfg, const std::string& prefix) {
  const Shape frame = cfg.frame_shape();
  const Shape mid = cfg.mid_shape();
  const Shape out = cfg.out_shape();
  const std::string frame_name = "frame_" + prefix;
  const std::string mid_name = "mid_" + prefix;
  const std::string out_name = "out_" + prefix;
  model.add_array(frame_name, frame);
  model.add_array(mid_name, mid);
  model.add_array(out_name, out);
  model.mark_input(frame_name);
  model.mark_output(out_name);

  // Horizontal filter task (the paper's Figure 10 tiler specification).
  {
    RepetitiveTask task;
    task.name = prefix + "hf";
    task.repetition = cfg.h_repetition();
    TiledPort in;
    in.port = {frame_name, frame};
    in.pattern = Shape{cfg.h.in_pattern};
    in.tiler.origin = {0, 0};
    in.tiler.fitting = IntMat{{0}, {1}};
    in.tiler.paving = IntMat{{1, 0}, {0, cfg.h.paving}};
    task.inputs.push_back(std::move(in));
    TiledPort o;
    o.port = {mid_name, mid};
    o.pattern = Shape{cfg.h.tile()};
    o.tiler.origin = {0, 0};
    o.tiler.fitting = IntMat{{0}, {1}};
    o.tiler.paving = IntMat{{1, 0}, {0, cfg.h.tile()}};
    task.outputs.push_back(std::move(o));
    task.op = downscale_op(cfg.h);
    model.add_task(std::move(task));
  }

  // Vertical filter task (transposed tilers).
  {
    RepetitiveTask task;
    task.name = prefix + "vf";
    task.repetition = cfg.v_repetition();
    TiledPort in;
    in.port = {mid_name, mid};
    in.pattern = Shape{cfg.v.in_pattern};
    in.tiler.origin = {0, 0};
    in.tiler.fitting = IntMat{{1}, {0}};
    in.tiler.paving = IntMat{{cfg.v.paving, 0}, {0, 1}};
    task.inputs.push_back(std::move(in));
    TiledPort o;
    o.port = {out_name, out};
    o.pattern = Shape{cfg.v.tile()};
    o.tiler.origin = {0, 0};
    o.tiler.fitting = IntMat{{1}, {0}};
    o.tiler.paving = IntMat{{cfg.v.tile(), 0}, {0, 1}};
    task.outputs.push_back(std::move(o));
    task.op = downscale_op(cfg.v);
    model.add_task(std::move(task));
  }
}

}  // namespace

Model build_downscaler_model(const DownscalerConfig& cfg) {
  cfg.validate();
  Model model("Downscaler");
  // The paper's channel order: b, g, r (bhf / ghf / rhf).
  for (const char* prefix : {"b", "g", "r"}) {
    add_channel(model, cfg, prefix);
  }
  model.validate();
  return model;
}

namespace {

aol::RepetitiveTask make_hf_task(const DownscalerConfig& cfg, const std::string& in_array,
                                 const std::string& out_array) {
  RepetitiveTask task;
  task.name = "hf";
  task.repetition = cfg.h_repetition();
  TiledPort in;
  in.port = {in_array, cfg.frame_shape()};
  in.pattern = Shape{cfg.h.in_pattern};
  in.tiler.origin = {0, 0};
  in.tiler.fitting = IntMat{{0}, {1}};
  in.tiler.paving = IntMat{{1, 0}, {0, cfg.h.paving}};
  task.inputs.push_back(std::move(in));
  TiledPort o;
  o.port = {out_array, cfg.mid_shape()};
  o.pattern = Shape{cfg.h.tile()};
  o.tiler.origin = {0, 0};
  o.tiler.fitting = IntMat{{0}, {1}};
  o.tiler.paving = IntMat{{1, 0}, {0, cfg.h.tile()}};
  task.outputs.push_back(std::move(o));
  task.op = downscale_op(cfg.h);
  return task;
}

aol::RepetitiveTask make_vf_task(const DownscalerConfig& cfg, const std::string& in_array,
                                 const std::string& out_array) {
  RepetitiveTask task;
  task.name = "vf";
  task.repetition = cfg.v_repetition();
  TiledPort in;
  in.port = {in_array, cfg.mid_shape()};
  in.pattern = Shape{cfg.v.in_pattern};
  in.tiler.origin = {0, 0};
  in.tiler.fitting = IntMat{{1}, {0}};
  in.tiler.paving = IntMat{{cfg.v.paving, 0}, {0, 1}};
  task.inputs.push_back(std::move(in));
  TiledPort o;
  o.port = {out_array, cfg.out_shape()};
  o.pattern = Shape{cfg.v.tile()};
  o.tiler.origin = {0, 0};
  o.tiler.fitting = IntMat{{1}, {0}};
  o.tiler.paving = IntMat{{cfg.v.tile(), 0}, {0, 1}};
  task.outputs.push_back(std::move(o));
  task.op = downscale_op(cfg.v);
  return task;
}

}  // namespace

aol::HierarchicalModel build_hierarchical_downscaler(const DownscalerConfig& cfg) {
  cfg.validate();
  aol::HierarchicalModel hm("Downscaler");

  // HorizontalFilter: one repetitive task behind frame/mid ports.
  {
    aol::Component& c = hm.define("HorizontalFilter");
    c.add_array("in", cfg.frame_shape());
    c.add_array("out", cfg.mid_shape());
    c.mark_input("in");
    c.mark_output("out");
    c.add_task(make_hf_task(cfg, "in", "out"));
  }
  // VerticalFilter.
  {
    aol::Component& c = hm.define("VerticalFilter");
    c.add_array("in", cfg.mid_shape());
    c.add_array("out", cfg.out_shape());
    c.mark_input("in");
    c.mark_output("out");
    c.add_task(make_vf_task(cfg, "in", "out"));
  }
  // Channel: H then V around an internal intermediate array.
  {
    aol::Component& c = hm.define("Channel");
    c.add_array("frame", cfg.frame_shape());
    c.add_array("mid", cfg.mid_shape());
    c.add_array("scaled", cfg.out_shape());
    c.mark_input("frame");
    c.mark_output("scaled");
    c.add_instance(aol::Instance{"h", "HorizontalFilter", {{"in", "frame"}, {"out", "mid"}}});
    c.add_instance(aol::Instance{"v", "VerticalFilter", {{"in", "mid"}, {"out", "scaled"}}});
  }
  // Downscaler root: one Channel per colour (the paper's b/g/r order).
  {
    aol::Component& c = hm.define("Downscaler");
    for (const std::string ch : {"b", "g", "r"}) {
      c.add_array("frame_" + ch, cfg.frame_shape());
      c.add_array("out_" + ch, cfg.out_shape());
      c.mark_input("frame_" + ch);
      c.mark_output("out_" + ch);
      c.add_instance(
          aol::Instance{ch, "Channel", {{"frame", "frame_" + ch}, {"scaled", "out_" + ch}}});
    }
  }
  return hm;
}

Model build_single_channel_model(const DownscalerConfig& cfg) {
  cfg.validate();
  Model model("Downscaler1C");
  add_channel(model, cfg, "y");
  model.validate();
  return model;
}

}  // namespace saclo::apps
