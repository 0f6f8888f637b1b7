#include "apps/downscaler/pipelines.hpp"

#include <map>
#include <utility>

#include "apps/downscaler/frames.hpp"
#include "core/fmt.hpp"
#include "core/scope_exit.hpp"
#include "sac/parser.hpp"

namespace saclo::apps {

using sac::ArgSpec;
using sac::ElemType;
using sac::Value;

OpBreakdown& OpBreakdown::operator+=(const OpBreakdown& other) {
  kernel_us += other.kernel_us;
  h2d_us += other.h2d_us;
  d2h_us += other.d2h_us;
  host_us += other.host_us;
  kernel_launches += other.kernel_launches;
  h2d_calls += other.h2d_calls;
  d2h_calls += other.d2h_calls;
  return *this;
}

namespace {

/// Each row's calls and time: what split_rows subtracts.
using RowTotals = std::vector<std::pair<std::int64_t, double>>;

/// Keeps `profiler`'s row totals in `totals`, reusing its storage.
void mark_rows(const gpu::Profiler& profiler, RowTotals& totals) {
  totals.clear();
  for (const gpu::Profiler::Row& row : profiler.rows()) {
    totals.emplace_back(row.calls, row.total_us);
  }
}

/// Adds what `profiler` recorded since its rows were `before` to the
/// two filters: kernel and host rows to H when `is_h` names them, else
/// to V; uploads to H (they feed it) and downloads to V. Only the delta
/// counts, since a fleet device's profiler is cumulative.
void split_rows(const gpu::Profiler& profiler, const RowTotals& before,
                const std::function<bool(const std::string&)>& is_h, OpBreakdown& h,
                OpBreakdown& v) {
  const std::vector<gpu::Profiler::Row>& rows = profiler.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const gpu::Profiler::Row& row = rows[i];
    std::int64_t calls = row.calls;
    double us = row.total_us;
    if (i < before.size()) {  // rows only ever append: row i is the same op
      calls -= before[i].first;
      us -= before[i].second;
    }
    if (calls == 0 && us == 0.0) continue;
    switch (row.kind) {
      case gpu::OpKind::Kernel: {
        OpBreakdown& b = is_h(row.name) ? h : v;
        b.kernel_us += us;
        b.kernel_launches += calls;
        break;
      }
      case gpu::OpKind::MemcpyHtoD:
        h.h2d_us += us;
        h.h2d_calls += calls;
        break;
      case gpu::OpKind::MemcpyDtoH:
        v.d2h_us += us;
        v.d2h_calls += calls;
        break;
      case gpu::OpKind::Host:
        (is_h(row.name) ? h : v).host_us += us;
        break;
    }
  }
}

/// Makes `frame` a host frame of `shape` borrowed from the device's
/// pool, unless it already is one, and fills it with frame f, channel
/// ch of the synthetic source on the device's workers. Every element is
/// rewritten, so a borrowed buffer's old contents never show.
void fill_frame(gpu::VirtualGpu& gpu, IntArray& frame, const Shape& shape, int f, int ch) {
  if (frame.shape() != shape) {
    frame = IntArray(shape, gpu.host_frames().lend(static_cast<std::size_t>(shape.elements())));
  }
  synthetic_channel(frame.data(), shape, f, ch, &gpu.workers());
}

}  // namespace

std::string nvprof_style_table(const std::string& h_label, const OpBreakdown& h,
                               const std::string& v_label, const OpBreakdown& v) {
  gpu::Profiler p;
  p.record(h_label, gpu::OpKind::Kernel, h.kernel_launches, h.kernel_us);
  p.record(v_label, gpu::OpKind::Kernel, v.kernel_launches, v.kernel_us);
  p.record("memcpyHtoDasync", gpu::OpKind::MemcpyHtoD, h.h2d_calls + v.h2d_calls,
           h.h2d_us + v.h2d_us);
  p.record("memcpyDtoHasync", gpu::OpKind::MemcpyDtoH, h.d2h_calls + v.d2h_calls,
           h.d2h_us + v.d2h_us);
  if (h.host_us + v.host_us > 0) {
    p.record("host (output tiler)", gpu::OpKind::Host, 0, h.host_us + v.host_us);
  }
  return p.table();
}

// --- SaC pipelines ------------------------------------------------------------------

namespace {
std::string filter_fn(bool horizontal, bool generic) {
  return cat(horizontal ? "hfilter_" : "vfilter_", generic ? "generic" : "nongeneric");
}
}  // namespace

SacDownscaler::SacDownscaler(const DownscalerConfig& config, const Options& options)
    : cfg_(config), opts_(options) {
  cfg_.validate();
  module_ = sac::parse(downscaler_sac_source(cfg_));
  prog_ = sac_cuda::CudaProgram::plan(
      compile(opts_.generic ? "downscale_generic" : "downscale_nongeneric", cfg_.frame_shape()));
  h_rows_ = prog_.rows_of(filter_fn(true, opts_.generic));
}

sac::CompiledFunction SacDownscaler::compile(const std::string& fn, const Shape& shape) const {
  sac::CompileOptions copts;
  copts.enable_wlf = opts_.enable_wlf;
  return sac::compile(module_, fn, {ArgSpec::array(ElemType::Int, shape)}, copts);
}

int SacDownscaler::h_kernels() const { return prog_.kernel_count(filter_fn(true, opts_.generic)); }

int SacDownscaler::v_kernels() const {
  return prog_.kernel_count(filter_fn(false, opts_.generic));
}

SacDownscaler::CudaResult SacDownscaler::run_cuda_chain(int frames, int channels,
                                                        int exec_frames) {
  gpu::VirtualGpu gpu(opts_.device, opts_.workers, opts_.backend);
  return run_cuda_chain_on(gpu, frames, channels, exec_frames);
}

SacDownscaler::CudaResult SacDownscaler::run_cuda_chain_on(gpu::VirtualGpu& gpu, int frames,
                                                           int channels, int exec_frames,
                                                           const FrameCallback& on_frame,
                                                           bool flush, int first_frame,
                                                           const FrameGate& gate) {
  gpu::cuda::Runtime rt(gpu);
  gpu::Profiler host_profiler;
  CudaResult result;
  const double clock0 = gpu.clock_us();
  mark_rows(gpu.profiler(), rows_before_);

  std::optional<gpu::StreamSet> streams;
  if (opts_.async_streams) {
    gpu::StreamSet ss;
    ss.h2d = gpu.create_stream();
    ss.compute = gpu.create_stream();
    ss.d2h = gpu.create_stream();
    ss.host = gpu.create_stream();
    streams = ss;
  }

  // Compute-done events per iteration, the double-buffer throttle: the
  // upload of iteration i may start only once the frame buffer of
  // iteration i-2 was consumed (cudaStreamWaitEvent on the copy stream).
  std::vector<gpu::EventId>& iter_done = iter_done_;
  iter_done.clear();
  int iter = 0;

  // The executed channel-frames' input: one host frame borrowed for the
  // call, refilled for each, given back however the call ends.
  std::vector<Value> args(1);
  std::optional<Value> out;
  bool borrowed = false;
  const ScopeExit give_back([&] {
    if (borrowed) gpu.host_frames().give_back(std::move(args[0].ints()).release());
  });

  result.next_frame = frames;
  for (int f = first_frame; f < frames; ++f) {
    // Preemption point: the first frame of a call always runs (every
    // dispatch makes progress); later frames yield to the gate.
    if (gate && f > first_frame && !gate(f)) {
      result.next_frame = f;
      break;
    }
    const bool exec = f < exec_frames;
    for (int ch = 0; ch < channels; ++ch) {
      if (streams && iter >= 2) gpu.wait_event(streams->h2d, iter_done[iter - 2]);

      if (exec) {
        fill_frame(gpu, args[0].ints(), cfg_.frame_shape(), f, ch);
        borrowed = true;
      }
      sac_cuda::CudaProgram::RunOptions ropts;
      ropts.execute = exec;
      ropts.streams = streams;
      prog_.run(rt, args, opts_.host, host_profiler, ropts, out);

      if (streams) iter_done.push_back(gpu.record_event(streams->compute));
      ++iter;
      if (exec && ch == 0) result.last_output = std::move(out->ints());
      out.reset();
    }
    if (on_frame) on_frame(f);
  }
  if (flush) gpu.synchronize();
  const auto is_h = [this](const std::string& row) { return h_rows_.count(row) > 0; };
  split_rows(gpu.profiler(), rows_before_, is_h, result.h, result.v);
  split_rows(host_profiler, {}, is_h, result.h, result.v);
  // Async host blocks run on the gpu timeline (host stream) and are
  // already inside the makespan; sync ones live in host_profiler. On a
  // fleet device the clock is cumulative, so the job's wall time is the
  // advance since entry.
  result.wall_us = gpu.clock_us() - clock0 + host_profiler.total_us();
  return result;
}

std::string SacDownscaler::nvprof_table(const CudaResult& result) const {
  return nvprof_style_table(cat("H. Filter (", h_kernels(), " kernels)"), result.h,
                            cat("V. Filter (", v_kernels(), " kernels)"), result.v);
}

SacDownscaler::FilterPrograms SacDownscaler::filter_programs() const {
  auto plan = [this](bool horizontal, const Shape& shape) {
    return sac_cuda::CudaProgram::plan(compile(filter_fn(horizontal, opts_.generic), shape));
  };
  return {plan(true, cfg_.frame_shape()), plan(false, cfg_.mid_shape())};
}

SacDownscaler::FilterResult SacDownscaler::run_cuda_filter(sac_cuda::CudaProgram& filter,
                                                           int iterations, bool execute) const {
  gpu::VirtualGpu gpu(opts_.device, opts_.workers, opts_.backend);
  gpu::cuda::Runtime rt(gpu);
  gpu::Profiler host_profiler;
  const sac::CompiledFunction& fn = filter.compiled();
  std::vector<Value> args(1);
  if (execute) args[0] = synthetic_channel(fn.param_shapes.at(fn.fn.params[0].second), 0, 0);
  sac_cuda::CudaProgram::RunOptions opts;
  opts.execute = execute;
  opts.repetitions = iterations;
  Value out = filter.run(rt, args, opts_.host, host_profiler, opts);
  FilterResult result;
  result.kernels = filter.kernel_count();
  if (execute) result.last_output = std::move(out.ints());
  const auto all = [](const std::string&) { return true; };
  split_rows(gpu.profiler(), {}, all, result.ops, result.ops);
  split_rows(host_profiler, {}, all, result.ops, result.ops);
  return result;
}

SacDownscaler::SeqResult SacDownscaler::run_seq(const FilterPrograms& filters, int iterations,
                                                bool execute) const {
  SeqResult result;
  std::vector<Value> h_args;
  if (execute) h_args.push_back(Value(synthetic_channel(cfg_.frame_shape(), 0, 0)));
  const auto h = sac_cuda::run_sequential(filters.h.compiled(), h_args, opts_.host, execute);
  std::vector<Value> v_args;
  if (execute) v_args.push_back(h.result);
  const auto v = sac_cuda::run_sequential(filters.v.compiled(), v_args, opts_.host, execute);
  result.h_us = h.time_us * iterations;
  result.v_us = v.time_us * iterations;
  if (execute) result.last_output = v.result.ints();
  return result;
}

// --- GASPARD2 pipeline ----------------------------------------------------------------

namespace {
gaspard::OpenClApplication build_optimized_app(const DownscalerConfig& config,
                                               const GaspardDownscaler::Options& options,
                                               std::vector<opt::AppliedRewrite>& rewrites) {
  aol::Model model =
      options.rgb ? build_downscaler_model(config) : build_single_channel_model(config);
  if (options.opt_level > 0) {
    opt::SearchOptions search;
    search.level = options.opt_level;
    search.device = options.device;
    opt::OptResult optimized = opt::optimize(model, search);
    rewrites = std::move(optimized.rewrites);
    model = std::move(optimized.model);
  }
  return gaspard::OpenClApplication::build(std::move(model));
}
}  // namespace

GaspardDownscaler::GaspardDownscaler(const DownscalerConfig& config, const Options& options)
    : cfg_(config), opts_(options), app_(build_optimized_app(config, options, rewrites_)) {}

GaspardDownscaler::Result GaspardDownscaler::run(int frames, int exec_frames) {
  gpu::VirtualGpu gpu(opts_.device, opts_.workers, opts_.backend);
  return run_on(gpu, frames, exec_frames);
}

GaspardDownscaler::Result GaspardDownscaler::run_on(gpu::VirtualGpu& gpu, int frames,
                                                    int exec_frames,
                                                    const FrameCallback& on_frame, bool flush,
                                                    int first_frame, const FrameGate& gate) {
  gpu::opencl::CommandQueue queue(gpu);
  const double clock0 = gpu.clock_us();
  mark_rows(gpu.profiler(), rows_before_);
  std::optional<gpu::opencl::CommandQueue> upload;
  std::optional<gpu::opencl::CommandQueue> compute;
  std::optional<gpu::opencl::CommandQueue> download;
  if (opts_.async_streams) {
    upload.emplace(gpu, gpu.create_stream());
    compute.emplace(gpu, gpu.create_stream());
    download.emplace(gpu, gpu.create_stream());
  }
  Result result;

  // Double-buffer throttle: frame f's uploads wait until frame f-2's
  // kernels finished (its input buffers are being reused).
  std::vector<gpu::EventId>& frame_done = frame_done_;
  frame_done.clear();

  // The executed frames' inputs: host frames borrowed for the call,
  // refilled each frame, given back however the call ends.
  std::map<std::string, IntArray> inputs;
  const ScopeExit give_back([&] {
    for (auto& [name, frame] : inputs) gpu.host_frames().give_back(std::move(frame).release());
  });

  result.next_frame = frames;
  for (int f = first_frame; f < frames; ++f) {
    // Preemption point (see SacDownscaler::run_cuda_chain_on).
    if (gate && f > first_frame && !gate(f)) {
      result.next_frame = f;
      break;
    }
    const bool exec = f < exec_frames;
    if (exec) {
      int ch = 0;
      for (const std::string& in : app_.model().inputs()) {
        fill_frame(gpu, inputs[in], cfg_.frame_shape(), f, ch++);
      }
    }
    std::map<std::string, IntArray> outputs;
    if (opts_.async_streams) {
      // Index relative to this call's first frame: frame_done only
      // holds markers this call pushed (a resumed chunk starts fresh).
      const int it = f - first_frame;
      if (it >= 2) upload->enqueue_wait(frame_done[static_cast<std::size_t>(it - 2)]);
      outputs = app_.run(*upload, *compute, *download, inputs, exec);
      frame_done.push_back(compute->enqueue_marker());
    } else {
      outputs = app_.run(queue, inputs, exec);
    }
    if (exec && !outputs.empty()) result.last_output = std::move(outputs.begin()->second);
    if (on_frame) on_frame(f);
  }
  if (flush) gpu.synchronize();

  const auto is_h = [](const std::string& row) { return row.find("hf") != std::string::npos; };
  split_rows(gpu.profiler(), rows_before_, is_h, result.h, result.v);
  result.wall_us = gpu.clock_us() - clock0;
  return result;
}

std::string GaspardDownscaler::nvprof_table(const Result& result) const {
  int h_kernels = 0;
  for (const auto& k : app_.kernels()) {
    if (k.name.find("hf") != std::string::npos) ++h_kernels;
  }
  const int v_kernels = kernel_count() - h_kernels;
  return nvprof_style_table(cat("H. Filter (", h_kernels, " kernels)"), result.h,
                            cat("V. Filter (", v_kernels, " kernels)"), result.v);
}

}  // namespace saclo::apps
