#include "gpu/sim_gpu.hpp"

#include <algorithm>
#include <cstring>

#include "core/fmt.hpp"
#include "fault/fault.hpp"

namespace saclo::gpu {

VirtualGpu::VirtualGpu(DeviceSpec spec, unsigned workers, BackendKind backend)
    : spec_(std::move(spec)),
      memory_(static_cast<std::int64_t>(spec_.global_mem_bytes)),
      pool_(workers),
      backend_(make_backend(backend, spec_, pool_)) {
  backend_->set_boundary_observer(this);
}

VirtualGpu::~VirtualGpu() = default;

void VirtualGpu::on_kernel_boundary(const KernelLaunch& kernel) {
  (void)kernel;
  if (fault_ != nullptr) fault_->on_kernel(timeline_.makespan_us());
}

void VirtualGpu::on_transfer_boundary(Dir dir, std::int64_t bytes) {
  (void)dir;
  (void)bytes;
  if (fault_ != nullptr) fault_->on_transfer(timeline_.makespan_us());
}

void VirtualGpu::transfer(Dir dir, BufferHandle touched, std::int64_t bytes,
                          const std::string& op, const TransferFn& move, StreamId stream) {
  const double us = backend_->transfer(dir, bytes, move);
  const BufferHandle handles[] = {touched};
  const std::span<const BufferHandle> hazard =
      touched.valid() ? std::span<const BufferHandle>(handles) : std::span<const BufferHandle>();
  const bool h2d = dir == Dir::HostToDevice;
  const auto iv = h2d ? timeline_.schedule(stream, us, {}, hazard)
                      : timeline_.schedule(stream, us, hazard, {});
  profiler_.record_interval(op, h2d ? OpKind::MemcpyHtoD : OpKind::MemcpyDtoH, stream,
                            iv.start_us, iv.end_us);
}

void VirtualGpu::copy_h2d(BufferHandle dst, std::span<const std::byte> src, const std::string& op,
                          bool execute, StreamId stream) {
  const auto dest = memory_.bytes(dst);
  if (src.size() > dest.size()) {
    throw DeviceMemoryError(cat("copy_h2d of ", src.size(), " bytes into ", dest.size(),
                                "-byte device buffer"));
  }
  TransferFn move;
  if (execute && !src.empty()) {
    move = [dest, src] { std::memcpy(dest.data(), src.data(), src.size()); };
  }
  transfer(Dir::HostToDevice, dst, static_cast<std::int64_t>(src.size()), op, move, stream);
}

void VirtualGpu::copy_d2h(std::span<std::byte> dst, BufferHandle src, const std::string& op,
                          bool execute, StreamId stream) {
  const auto source = memory_.bytes(src);
  if (dst.size() > source.size()) {
    throw DeviceMemoryError(cat("copy_d2h of ", dst.size(), " bytes from ", source.size(),
                                "-byte device buffer"));
  }
  TransferFn move;
  if (execute && !dst.empty()) {
    move = [dst, source] { std::memcpy(dst.data(), source.data(), dst.size()); };
  }
  transfer(Dir::DeviceToHost, src, static_cast<std::int64_t>(dst.size()), op, move, stream);
}

void VirtualGpu::upload_frame(BufferHandle dst, std::span<const std::int64_t> src,
                              const std::string& op, StreamId stream) {
  const auto dev = memory_.view<std::int32_t>(dst);
  if (src.size() != dev.size()) {
    throw DeviceMemoryError(cat("upload_frame of ", src.size(), " elements into ", dev.size(),
                                "-element device buffer"));
  }
  const TransferFn move = [dev, src] { std::copy(src.begin(), src.end(), dev.begin()); };
  transfer(Dir::HostToDevice, dst, dst.bytes, op, move, stream);
}

std::vector<std::int64_t> VirtualGpu::download_frame(BufferHandle src, const std::string& op,
                                                     StreamId stream) {
  const auto dev = memory_.view<std::int32_t>(src);
  std::vector<std::int64_t> host;
  const TransferFn move = [&host, dev] { host.assign(dev.begin(), dev.end()); };
  transfer(Dir::DeviceToHost, src, src.bytes, op, move, stream);
  return host;
}

double VirtualGpu::launch(const KernelLaunch& kernel, bool execute, StreamId stream) {
  const double us = backend_->launch_kernel(kernel, execute);
  const auto iv = timeline_.schedule(stream, us, kernel.reads, kernel.writes);
  profiler_.record_interval(kernel.name, OpKind::Kernel, stream, iv.start_us, iv.end_us);
  return us;
}

double VirtualGpu::run_host(const std::string& op, double us, StreamId stream) {
  const auto iv = timeline_.schedule(stream, us);
  profiler_.record_interval(op, OpKind::Host, stream, iv.start_us, iv.end_us);
  return iv.end_us;
}

}  // namespace saclo::gpu
