#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/config.hpp"
#include "apps/downscaler/sac_source.hpp"
#include "gaspard/chain.hpp"
#include "gpu/backend_kind.hpp"
#include "opt/search.hpp"
#include "sac_cuda/codegen_text.hpp"
#include "sac_cuda/program.hpp"

namespace saclo::apps {

/// Per-frame progress hook of the frame-loop drivers: called after a
/// frame's operations were issued (async paths: enqueued, not yet
/// synced) with the frame index. The serving runtime uses it to emit
/// frame_done events into its structured log; an empty function costs
/// one branch per frame.
using FrameCallback = std::function<void(int frame)>;

/// Cooperative preemption check of the frame-loop drivers: consulted
/// before issuing each frame beyond the first of the call. Returning
/// false stops the loop at that frame boundary — the result's
/// next_frame then names the first frame not issued, and a later call
/// with first_frame = next_frame resumes bit-exactly (frames are pure
/// functions of their index). The first frame of a call always runs,
/// so every dispatch makes progress. An empty function never stops.
using FrameGate = std::function<bool(int next_frame)>;

/// Per-filter timing breakdown (simulated microseconds), the unit of
/// every figure/table reproduction.
struct OpBreakdown {
  double kernel_us = 0;
  double h2d_us = 0;
  double d2h_us = 0;
  double host_us = 0;
  std::int64_t kernel_launches = 0;
  std::int64_t h2d_calls = 0;
  std::int64_t d2h_calls = 0;

  double total_us() const { return kernel_us + h2d_us + d2h_us + host_us; }
  OpBreakdown& operator+=(const OpBreakdown& other);
};

/// The SaC-side experiment driver: compiles the generated downscaler
/// module's `downscale_{generic,nongeneric}` once and replays it over a
/// frame loop on the simulated GPU (SAC-CUDA); the per-filter programs
/// of Figure 9 and SAC-Seq are compiled on request.
class SacDownscaler {
 public:
  struct Options {
    bool generic = false;    ///< generic (for-loop) vs non-generic output tilers
    bool enable_wlf = true;  ///< the WLF ablation switch
    gpu::DeviceSpec device = gpu::gtx480();
    gpu::HostSpec host = gpu::i7_930();
    unsigned workers = 0;  ///< thread-pool width for functional kernel execution
    /// Execution backend of the internally constructed VirtualGpu (the
    /// standalone run_* entry points; run_*_on uses the caller's
    /// device). Results are bit-exact across backends.
    gpu::BackendKind backend = gpu::BackendKind::Sim;
    /// Issue the frame loop asynchronously on CUDA streams: the upload
    /// of frame k+1 and the download of frame k-1 overlap frame k's
    /// kernels, double-buffered (an upload waits until the frame buffer
    /// two iterations back was consumed). Bit-exact vs synchronous.
    bool async_streams = false;
  };

  SacDownscaler(const DownscalerConfig& config, const Options& options);

  /// The one program of the frame loop: H's steps, then V's, with the
  /// plan's own transfers. Steps name their filter (Step::origin).
  const sac_cuda::CudaProgram& program() const { return prog_; }
  sac_cuda::CudaProgram& program() { return prog_; }
  /// Generator kernels per channel-frame of each filter.
  int h_kernels() const;
  int v_kernels() const;

  struct CudaResult {
    OpBreakdown h;
    OpBreakdown v;
    IntArray last_output;  ///< last executed frame, first channel
    /// End-to-end wall clock of the frame loop: the stream-timeline
    /// makespan plus (synchronous path) serial host time. With
    /// async_streams this is strictly below the serialized sum whenever
    /// transfers hid behind kernels.
    double wall_us = 0;
    /// First frame not issued by this call: `frames` when the loop ran
    /// to the end, the gate's stop point otherwise (resume from here).
    int next_frame = 0;
    double total_us() const { return h.total_us() + v.total_us(); }
  };

  /// The paper's Table II scenario: per frame and channel, one run of
  /// program() (upload the frame, run H then V, download the result).
  /// The first `exec_frames` frames execute functionally; the rest
  /// accrue simulated time only.
  CudaResult run_cuda_chain(int frames, int channels, int exec_frames);

  /// The same frame loop on a caller-provided device — the serving
  /// runtime's fleet path, where one VirtualGpu outlives many jobs.
  /// Simulated time accrues on that device's cumulative timeline;
  /// every field of the result (breakdowns, wall_us) is the delta of
  /// this call. Must not be invoked concurrently on the same
  /// SacDownscaler or the same device (the fleet scheduler guarantees
  /// one dispatcher thread per device). flush=false elides the trailing
  /// synchronize (see GaspardDownscaler::run_on) for batched jobs.
  /// `first_frame`/`gate` are the scheduler's preemption points: the
  /// loop covers [first_frame, frames) and may stop early at a frame
  /// boundary when the gate says so (see FrameGate).
  CudaResult run_cuda_chain_on(gpu::VirtualGpu& gpu, int frames, int channels, int exec_frames,
                               const FrameCallback& on_frame = {}, bool flush = true,
                               int first_frame = 0, const FrameGate& gate = {});

  /// The Table II style report of a chain run, rendered on demand. The
  /// per-stream timeline and the Chrome trace of a run come from the
  /// VirtualGpu passed to run_cuda_chain_on: `profiler().timeline()`
  /// and obs::merged_chrome_trace.
  std::string nvprof_table(const CudaResult& result) const;

  /// The separately compiled filters `hfilter_*` and `vfilter_*` of
  /// Figure 9 and SAC-Seq, with this driver's options. Each call
  /// compiles and plans both: build them once, outside a timed loop.
  struct FilterPrograms {
    sac_cuda::CudaProgram h;
    sac_cuda::CudaProgram v;
  };
  FilterPrograms filter_programs() const;

  /// The paper's Figure 9 scenario: one filter "executed for 300
  /// iterations" as one run over device-resident data (a benchmark
  /// loop, which is what reproduces the paper's ~11x sequential
  /// speedup; see RunOptions::repetitions).
  struct FilterResult {
    OpBreakdown ops;
    int kernels = 0;
    IntArray last_output;
  };
  FilterResult run_cuda_filter(sac_cuda::CudaProgram& filter, int iterations, bool execute) const;

  /// SAC-Seq: the filters on the sequential host model.
  struct SeqResult {
    double h_us = 0;
    double v_us = 0;
    IntArray last_output;
    double total_us() const { return h_us + v_us; }
  };
  SeqResult run_seq(const FilterPrograms& filters, int iterations, bool execute) const;

 private:
  sac::CompiledFunction compile(const std::string& fn, const Shape& shape) const;

  DownscalerConfig cfg_;
  Options opts_;
  sac::Module module_;
  sac_cuda::CudaProgram prog_;
  std::set<std::string> h_rows_;  ///< profiler rows of the H filter's steps
  // Per-job scratch, reused by every call.
  std::vector<std::pair<std::int64_t, double>> rows_before_;
  std::vector<gpu::EventId> iter_done_;
};

/// The GASPARD2-side experiment driver: ArrayOL model -> OpenCL chain,
/// run over the frame loop (Table I).
class GaspardDownscaler {
 public:
  struct Options {
    gpu::DeviceSpec device = gpu::gtx480();
    unsigned workers = 0;
    /// Execution backend of the internally constructed VirtualGpu (see
    /// SacDownscaler::Options::backend).
    gpu::BackendKind backend = gpu::BackendKind::Sim;
    bool rgb = true;  ///< full 3-channel model (the paper's Figure 3)
    /// Run each frame over three OpenCL command queues (upload /
    /// compute / download) so neighbouring frames' transfers overlap
    /// this frame's kernels, double-buffered. Bit-exact vs the
    /// single-queue path.
    bool async_streams = false;
    /// Transformation-optimizer level applied to the ArrayOL model
    /// before code generation (see opt/search.hpp): 0 = the paper's
    /// unfused chain, 1 = fusion (+ enabling paving changes), 2 = also
    /// merge independent channels. Every level is bit-exact vs level 0.
    int opt_level = 0;
  };

  GaspardDownscaler(const DownscalerConfig& config, const Options& options);

  const gaspard::OpenClApplication& application() const { return app_; }
  /// Rewrites the optimizer applied at construction (empty at opt_level
  /// 0 or when nothing was profitable).
  const std::vector<opt::AppliedRewrite>& rewrites() const { return rewrites_; }
  /// Kernels launched per frame after optimization.
  int kernel_count() const { return static_cast<int>(app_.kernels().size()); }

  struct Result {
    OpBreakdown h;  ///< all *hf kernels
    OpBreakdown v;  ///< all *vf kernels
    IntArray last_output;  ///< first output channel of the last executed frame
    double wall_us = 0;    ///< stream-timeline makespan of the frame loop
    /// First frame not issued by this call (see
    /// SacDownscaler::CudaResult::next_frame).
    int next_frame = 0;
    double total_us() const { return h.total_us() + v.total_us(); }
  };

  Result run(int frames, int exec_frames);

  /// The same frame loop on a caller-provided device (see
  /// SacDownscaler::run_cuda_chain_on): all result fields are deltas of
  /// this call, so a fleet device can serve many jobs back to back.
  /// flush=false elides the trailing device-wide synchronize between
  /// members of a coalesced batch — functional results are already
  /// complete (execution is immediate in issue order), and the
  /// simulated timeline is unchanged either way (ordering across calls
  /// is carried by buffer hazards, not the barrier).
  /// `first_frame`/`gate` are the scheduler's preemption points (see
  /// FrameGate): the loop covers [first_frame, frames) and may stop at
  /// a frame boundary.
  Result run_on(gpu::VirtualGpu& gpu, int frames, int exec_frames,
                const FrameCallback& on_frame = {}, bool flush = true, int first_frame = 0,
                const FrameGate& gate = {});

  /// The Table I style report of a run, rendered on demand (see
  /// SacDownscaler::nvprof_table); kernels whose name holds "hf" count
  /// as the horizontal filter.
  std::string nvprof_table(const Result& result) const;

 private:
  DownscalerConfig cfg_;
  Options opts_;
  std::vector<opt::AppliedRewrite> rewrites_;  // before app_: ctor fills it while building
  gaspard::OpenClApplication app_;
  // Per-job scratch, reused by every call.
  std::vector<std::pair<std::int64_t, double>> rows_before_;
  std::vector<gpu::EventId> frame_done_;
};

/// Renders a Table I/II-style report from per-filter breakdowns.
std::string nvprof_style_table(const std::string& h_label, const OpBreakdown& h,
                               const std::string& v_label, const OpBreakdown& v);

}  // namespace saclo::apps
