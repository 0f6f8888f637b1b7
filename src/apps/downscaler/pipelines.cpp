#include "apps/downscaler/pipelines.hpp"

#include <map>
#include <utility>

#include "apps/downscaler/frames.hpp"
#include "core/fmt.hpp"
#include "sac/parser.hpp"
#include "sac/typecheck.hpp"

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

OpBreakdown breakdown_totals(const gpu::Profiler& gpu_profiler,
                             const gpu::Profiler& host_profiler) {
  OpBreakdown b;
  for (const auto& row : gpu_profiler.rows()) {
    switch (row.kind) {
      case gpu::OpKind::Kernel:
        b.kernel_us += row.total_us;
        b.kernel_launches += row.calls;
        break;
      case gpu::OpKind::MemcpyHtoD:
        b.h2d_us += row.total_us;
        b.h2d_calls += row.calls;
        break;
      case gpu::OpKind::MemcpyDtoH:
        b.d2h_us += row.total_us;
        b.d2h_calls += row.calls;
        break;
      case gpu::OpKind::Host:
        b.host_us += row.total_us;
        break;
    }
  }
  b.host_us += host_profiler.total_us(gpu::OpKind::Host);
  return b;
}

OpBreakdown breakdown_delta(const gpu::Profiler& gpu_profiler, const gpu::Profiler& host_profiler,
                            const OpBreakdown& before) {
  OpBreakdown now = breakdown_totals(gpu_profiler, host_profiler);
  OpBreakdown d;
  d.kernel_us = now.kernel_us - before.kernel_us;
  d.h2d_us = now.h2d_us - before.h2d_us;
  d.d2h_us = now.d2h_us - before.d2h_us;
  d.host_us = now.host_us - before.host_us;
  d.kernel_launches = now.kernel_launches - before.kernel_launches;
  d.h2d_calls = now.h2d_calls - before.h2d_calls;
  d.d2h_calls = now.d2h_calls - before.d2h_calls;
  return d;
}

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
/// A one-argument list that takes the frame over; a braced list would
/// copy it.
std::vector<Value> single_arg(Value v) {
  std::vector<Value> args;
  args.push_back(std::move(v));
  return args;
}
}  // namespace

SacDownscaler::SacDownscaler(const DownscalerConfig& config, const Options& options)
    : cfg_(config), opts_(options) {
  cfg_.validate();
  module_ = sac::parse(downscaler_sac_source(cfg_));
  sac::typecheck(module_);
  sac::CompileOptions copts;
  copts.enable_wlf = opts_.enable_wlf;
  const std::string h_fn = opts_.generic ? "hfilter_generic" : "hfilter_nongeneric";
  const std::string v_fn = opts_.generic ? "vfilter_generic" : "vfilter_nongeneric";
  h_fn_ = sac::compile(module_, h_fn, {ArgSpec::array(ElemType::Int, cfg_.frame_shape())}, copts);
  v_fn_ = sac::compile(module_, v_fn, {ArgSpec::array(ElemType::Int, cfg_.mid_shape())}, copts);
  h_prog_ = sac_cuda::CudaProgram::plan(h_fn_);
  v_prog_ = sac_cuda::CudaProgram::plan(v_fn_);
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
  std::vector<gpu::EventId> iter_done;
  int iter = 0;

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

      Value frame;
      if (exec) frame = Value(synthetic_channel(cfg_.frame_shape(), f, ch));

      OpBreakdown before = breakdown_totals(gpu.profiler(), host_profiler);
      sac_cuda::CudaProgram::RunOptions hopts;
      hopts.execute = exec;
      hopts.silent_result = true;  // the intermediate stays on the device
      hopts.streams = streams;
      Value mid = h_prog_.run(rt, single_arg(std::move(frame)), opts_.host, host_profiler, hopts);
      result.h += breakdown_delta(gpu.profiler(), host_profiler, before);

      before = breakdown_totals(gpu.profiler(), host_profiler);
      sac_cuda::CudaProgram::RunOptions vopts;
      vopts.execute = exec;
      vopts.silent_params.insert(v_prog_.compiled().fn.params[0].second);
      vopts.streams = streams;
      Value out = v_prog_.run(rt, single_arg(std::move(mid)), opts_.host, host_profiler, vopts);
      result.v += breakdown_delta(gpu.profiler(), host_profiler, before);

      if (streams) iter_done.push_back(gpu.record_event(streams->compute));
      ++iter;
      if (exec && ch == 0) result.last_output = std::move(out.ints());
    }
    if (on_frame) on_frame(f);
  }
  if (flush) gpu.synchronize();
  // Async host blocks run on the gpu timeline (host stream) and are
  // already inside the makespan; sync ones live in host_profiler. On a
  // fleet device the clock is cumulative, so the job's wall time is the
  // advance since entry.
  result.wall_us = gpu.clock_us() - clock0 + host_profiler.total_us();
  return result;
}

std::string SacDownscaler::nvprof_table(const CudaResult& result) const {
  return nvprof_style_table(cat("H. Filter (", h_prog_.kernel_count(), " kernels)"), result.h,
                            cat("V. Filter (", v_prog_.kernel_count(), " kernels)"), result.v);
}

SacDownscaler::FilterResult SacDownscaler::run_cuda_filter(bool horizontal, int iterations,
                                                           int exec_iterations,
                                                           bool resident_data) {
  gpu::VirtualGpu gpu(opts_.device, opts_.workers, opts_.backend);
  gpu::cuda::Runtime rt(gpu);
  gpu::Profiler host_profiler;
  sac_cuda::CudaProgram& prog = horizontal ? h_prog_ : v_prog_;
  const Shape in_shape = horizontal ? cfg_.frame_shape() : cfg_.mid_shape();
  FilterResult result;
  result.kernels = prog.kernel_count();
  const std::string& param = prog.compiled().fn.params[0].second;
  for (int i = 0; i < iterations; ++i) {
    const bool exec = i < exec_iterations;
    Value input;
    if (exec) input = Value(synthetic_channel(in_shape, resident_data ? 0 : i, 0));
    sac_cuda::CudaProgram::RunOptions opts;
    opts.execute = exec;
    if (resident_data && i > 0) {
      // The benchmark loop iterates over device-resident data: only the
      // first iteration pays the upload, and results are fetched once
      // at the end.
      opts.silent_params.insert(param);
    }
    if (resident_data && i + 1 < iterations) opts.silent_result = true;
    Value out = prog.run(rt, single_arg(std::move(input)), opts_.host, host_profiler, opts);
    if (exec) result.last_output = std::move(out.ints());
  }
  result.ops = breakdown_totals(gpu.profiler(), host_profiler);
  return result;
}

SacDownscaler::SeqResult SacDownscaler::run_seq(int iterations, int exec_iterations) {
  SeqResult result;
  const bool exec = exec_iterations > 0;
  Value frame;
  if (exec) frame = Value(synthetic_channel(cfg_.frame_shape(), 0, 0));
  sac_cuda::HostRunResult h =
      sac_cuda::run_sequential(h_fn_, exec ? std::vector<Value>{frame} : std::vector<Value>{},
                               opts_.host, exec);
  Value mid = h.result;
  sac_cuda::HostRunResult v =
      sac_cuda::run_sequential(v_fn_, exec ? std::vector<Value>{mid} : std::vector<Value>{},
                               opts_.host, exec);
  result.h_us = h.time_us * iterations;
  result.v_us = v.time_us * iterations;
  if (exec) result.last_output = v.result.ints();
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
  // Per-row snapshot so a fleet device's earlier jobs don't leak into
  // this job's H/V split.
  std::map<std::string, std::pair<std::int64_t, double>> rows_before;
  for (const auto& row : gpu.profiler().rows()) {
    rows_before.emplace(row.name, std::make_pair(row.calls, row.total_us));
  }
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
  std::vector<gpu::EventId> frame_done;

  result.next_frame = frames;
  for (int f = first_frame; f < frames; ++f) {
    // Preemption point (see SacDownscaler::run_cuda_chain_on).
    if (gate && f > first_frame && !gate(f)) {
      result.next_frame = f;
      break;
    }
    const bool exec = f < exec_frames;
    std::map<std::string, IntArray> inputs;
    if (exec) {
      int ch = 0;
      for (const std::string& in : app_.model().inputs()) {
        inputs.emplace(in, synthetic_channel(cfg_.frame_shape(), f, ch++));
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

  // Split the kernel rows between the horizontal and vertical filters;
  // attribute uploads to H (they feed it) and downloads to V. Only this
  // call's delta counts — the profiler is cumulative on a fleet device.
  for (const auto& row : gpu.profiler().rows()) {
    std::int64_t calls = row.calls;
    double us = row.total_us;
    if (auto it = rows_before.find(row.name); it != rows_before.end()) {
      calls -= it->second.first;
      us -= it->second.second;
    }
    if (calls == 0 && us == 0.0) continue;
    switch (row.kind) {
      case gpu::OpKind::Kernel: {
        const bool is_h = row.name.find("hf") != std::string::npos;
        OpBreakdown& b = is_h ? result.h : result.v;
        b.kernel_us += us;
        b.kernel_launches += calls;
        break;
      }
      case gpu::OpKind::MemcpyHtoD:
        result.h.h2d_us += us;
        result.h.h2d_calls += calls;
        break;
      case gpu::OpKind::MemcpyDtoH:
        result.v.d2h_us += us;
        result.v.d2h_calls += calls;
        break;
      case gpu::OpKind::Host:
        break;
    }
  }
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
