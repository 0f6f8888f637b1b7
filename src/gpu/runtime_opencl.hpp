#pragma once

#include <utility>

#include "core/ndarray.hpp"
#include "gpu/sim_gpu.hpp"

namespace saclo::gpu::opencl {

/// OpenCL-flavoured façade: a command queue onto the simulated device.
/// GASPARD2's generated host code (Section V of the paper) creates
/// buffers, enqueues async writes/reads and NDRange kernels; this class
/// is that surface. All enqueues execute in order (an in-order queue);
/// distinct CommandQueues bound to distinct streams overlap on the
/// simulated timeline unless ordered by a data hazard or a marker
/// event — the multi-queue idiom of async OpenCL pipelines.
class CommandQueue {
 public:
  explicit CommandQueue(VirtualGpu& gpu, StreamId stream = kDefaultStream)
      : gpu_(&gpu), stream_(stream) {}

  VirtualGpu& gpu() { return *gpu_; }
  const DeviceSpec& spec() const { return gpu_->spec(); }
  StreamId stream() const { return stream_; }

  /// Frame transfers into and out of a cl_mem-style buffer: the
  /// host's int64 frames travel as the device's 32-bit pixels,
  /// converted inside the transfer (VirtualGpu::upload_frame/
  /// download_frame).
  void enqueue_write_frame(BufferHandle dst, const NDArray<std::int64_t>& src) {
    gpu_->upload_frame(dst, src.data(), kHtoDOp, stream_);
  }
  NDArray<std::int64_t> enqueue_read_frame(BufferHandle src, Shape shape) {
    return NDArray<std::int64_t>(std::move(shape), gpu_->download_frame(src, kDtoHOp, stream_));
  }

  /// Accounting-only transfers (simulated repetition): the buffer the
  /// transfer fills / drains orders it against kernels on other queues.
  void account_write(BufferHandle dst) {
    gpu_->account_transfer(dst.bytes, Dir::HostToDevice, kHtoDOp, stream_, dst);
  }
  void account_read(BufferHandle src) {
    gpu_->account_transfer(src.bytes, Dir::DeviceToHost, kDtoHOp, stream_, src);
  }

  /// clEnqueueNDRangeKernel: `global_work_size` is linearised, exactly
  /// as the generated kernels compute `iGID = get_global_id(0)`.
  double enqueue_ndrange(const KernelLaunch& kernel, bool execute = true) {
    return gpu_->launch(kernel, execute, stream_);
  }

  /// clEnqueueMarker: captures this queue's current tail as an event.
  EventId enqueue_marker() { return gpu_->record_event(stream_); }
  /// clEnqueueWaitForEvents: orders this queue after the event.
  void enqueue_wait(EventId event) { gpu_->wait_event(stream_, event); }

  /// The GPU profiler reports OpenCL async copies under the same row
  /// names as CUDA ones (the paper's Table I was produced this way on
  /// an NVIDIA OpenCL stack).
  static constexpr const char* kHtoDOp = "memcpyHtoDasync";
  static constexpr const char* kDtoHOp = "memcpyDtoHasync";

 private:
  VirtualGpu* gpu_;
  StreamId stream_ = kDefaultStream;
};

}  // namespace saclo::gpu::opencl
