#pragma once

#include <string>

#include "core/ndarray.hpp"
#include "gpu/sim_gpu.hpp"

namespace saclo::gpu::cuda {

/// A typed, shaped device allocation in the CUDA-style runtime (the
/// simulated analogue of a `T*` returned by cudaMalloc plus the shape
/// descriptor the SaC runtime keeps next to it).
template <typename T>
class DeviceArray {
 public:
  DeviceArray() = default;
  DeviceArray(VirtualGpu& gpu, Shape shape, DeviceBuffer buffer)
      : gpu_(&gpu), shape_(std::move(shape)), buffer_(std::move(buffer)) {}

  const Shape& shape() const { return shape_; }
  bool valid() const { return buffer_.valid(); }
  BufferHandle handle() const { return buffer_.handle(); }

  /// The simulator-side storage (only meaningful when ops executed
  /// functionally wrote to it).
  std::span<T> view() { return gpu_->memory().view<T>(buffer_.handle()); }
  std::span<const T> view() const { return gpu_->memory().view<T>(buffer_.handle()); }

 private:
  VirtualGpu* gpu_ = nullptr;
  Shape shape_;
  DeviceBuffer buffer_;
};

/// CUDA-flavoured façade over the simulator: the vocabulary the SaC
/// backend's generated host code uses (Section VII of the paper —
/// `host2device`, `device2host`, kernel launches). The transfers move
/// whole frames (host2device_frame / device2host_frame).
class Runtime {
 public:
  explicit Runtime(VirtualGpu& gpu) : gpu_(&gpu) {}

  VirtualGpu& gpu() { return *gpu_; }
  const DeviceSpec& spec() const { return gpu_->spec(); }

  /// A device array without the zero-fill, for an array the caller
  /// proves it writes whole before reading it (see
  /// BufferAllocator::allocate_for_overwrite).
  template <typename T>
  DeviceArray<T> device_alloc_for_overwrite(Shape shape) {
    const std::int64_t bytes = shape.elements() * static_cast<std::int64_t>(sizeof(T));
    return DeviceArray<T>(*gpu_, std::move(shape),
                          DeviceBuffer::for_overwrite(gpu_->allocator(), bytes));
  }

  double launch(const KernelLaunch& kernel, bool execute = true,
                StreamId stream = kDefaultStream) {
    return gpu_->launch(kernel, execute, stream);
  }

  /// Frame transfers: mini-SaC values are int64 on the host, but the
  /// paper's pixel data is 32-bit — device frames are stored (and
  /// their PCIe cost modelled) as 4-byte ints, converted inside the
  /// transfer (VirtualGpu::upload_frame/download_frame).
  void host2device_frame(DeviceArray<std::int32_t>& dst, const NDArray<std::int64_t>& src,
                         StreamId stream = kDefaultStream) {
    gpu_->upload_frame(dst.handle(), src.data(), kHtoDOp, stream);
  }

  NDArray<std::int64_t> device2host_frame(const DeviceArray<std::int32_t>& src,
                                          StreamId stream = kDefaultStream) {
    return NDArray<std::int64_t>(src.shape(), gpu_->download_frame(src.handle(), kDtoHOp, stream));
  }

  /// The accounting-only repetitions of the frame transfers (simulated
  /// repetition of a frame loop): they need no host array, only the
  /// device array whose size they charge.
  void account_host2device_frame(const DeviceArray<std::int32_t>& dst,
                                 StreamId stream = kDefaultStream) {
    gpu_->account_transfer(dst.shape().elements() * 4, Dir::HostToDevice, kHtoDOp, stream,
                           dst.handle());
  }
  void account_device2host_frame(const DeviceArray<std::int32_t>& src,
                                 StreamId stream = kDefaultStream) {
    gpu_->account_transfer(src.shape().elements() * 4, Dir::DeviceToHost, kDtoHOp, stream,
                           src.handle());
  }

  /// Row names used by the CUDA profiler — and by the paper's tables.
  static constexpr const char* kHtoDOp = "memcpyHtoDasync";
  static constexpr const char* kDtoHOp = "memcpyDtoHasync";

 private:
  VirtualGpu* gpu_;
};

}  // namespace saclo::gpu::cuda
