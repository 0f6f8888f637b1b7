#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpu/sim_gpu.hpp"

namespace saclo::gpu::cuda {

/// CUDA-flavoured façade over the simulator: the vocabulary the SaC
/// backend's generated host code uses (Section VII of the paper —
/// `host2device`, `device2host`, kernel launches). The transfers move
/// whole frames (host2device_frame / device2host_frame).
class Runtime {
 public:
  explicit Runtime(VirtualGpu& gpu) : gpu_(&gpu) {}

  VirtualGpu& gpu() { return *gpu_; }
  const DeviceSpec& spec() const { return gpu_->spec(); }

  double launch(const KernelLaunch& kernel, bool execute = true,
                StreamId stream = kDefaultStream) {
    return gpu_->launch(kernel, execute, stream);
  }

  /// Frame transfers: the paper's pixel data is 32-bit — device frames
  /// are stored (and their PCIe cost modelled) as 4-byte ints. A frame
  /// already in that format is copied; mini-SaC's int64 host values are
  /// converted inside the transfer (VirtualGpu::upload_frame/
  /// download_frame).
  void host2device_frame(BufferHandle dst, std::span<const std::int32_t> src,
                         StreamId stream = kDefaultStream) {
    gpu_->upload_frame(dst, src, kHtoDOp, stream);
  }
  void host2device_frame(BufferHandle dst, std::span<const std::int64_t> src,
                         StreamId stream = kDefaultStream) {
    gpu_->upload_frame(dst, src, kHtoDOp, stream);
  }
  std::vector<std::int64_t> device2host_frame(BufferHandle src, StreamId stream = kDefaultStream) {
    return gpu_->download_frame(src, kDtoHOp, stream);
  }

  /// The accounting-only repetitions of the frame transfers (simulated
  /// repetition of a frame loop): they need no host array, only the
  /// device buffer whose size they charge.
  void account_host2device_frame(BufferHandle dst, StreamId stream = kDefaultStream) {
    gpu_->account_transfer(dst.bytes, Dir::HostToDevice, kHtoDOp, stream, dst);
  }
  void account_device2host_frame(BufferHandle src, StreamId stream = kDefaultStream) {
    gpu_->account_transfer(src.bytes, Dir::DeviceToHost, kDtoHOp, stream, src);
  }

  /// Row names used by the CUDA profiler — and by the paper's tables.
  static constexpr const char* kHtoDOp = "memcpyHtoDasync";
  static constexpr const char* kDtoHOp = "memcpyDtoHasync";

 private:
  VirtualGpu* gpu_;
};

}  // namespace saclo::gpu::cuda
