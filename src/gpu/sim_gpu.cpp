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

void VirtualGpu::copy_h2d(BufferHandle dst, std::span<const std::byte> src, const std::string& op,
                          bool execute, bool account, StreamId stream) {
  auto dest = memory_.bytes(dst);
  if (src.size() > dest.size()) {
    throw DeviceMemoryError(cat("copy_h2d of ", src.size(), " bytes into ", dest.size(),
                                "-byte device buffer"));
  }
  // Silent (account=false) copies are device-resident handoffs, not
  // PCIe traffic — they never reach the backend, so they cross no fault
  // boundary and accrue no time.
  if (!account) {
    if (execute) std::memcpy(dest.data(), src.data(), src.size());
    return;
  }
  const double us = backend_->transfer(Dir::HostToDevice, dest.first(src.size()), src,
                                       static_cast<std::int64_t>(src.size()), execute);
  const BufferHandle writes[] = {dst};
  const auto iv = timeline_.schedule(stream, us, {}, writes);
  profiler_.record_interval(op, OpKind::MemcpyHtoD, stream, iv.start_us, iv.end_us);
}

void VirtualGpu::copy_d2h(std::span<std::byte> dst, BufferHandle src, const std::string& op,
                          bool execute, bool account, StreamId stream) {
  auto source = memory_.bytes(src);
  if (dst.size() > source.size()) {
    throw DeviceMemoryError(cat("copy_d2h of ", dst.size(), " bytes from ", source.size(),
                                "-byte device buffer"));
  }
  if (!account) {
    if (execute) std::memcpy(dst.data(), source.data(), dst.size());
    return;
  }
  const double us = backend_->transfer(Dir::DeviceToHost, dst, source.first(dst.size()),
                                       static_cast<std::int64_t>(dst.size()), execute);
  const BufferHandle reads[] = {src};
  const auto iv = timeline_.schedule(stream, us, reads, {});
  profiler_.record_interval(op, OpKind::MemcpyDtoH, stream, iv.start_us, iv.end_us);
}

void VirtualGpu::account_transfer(std::int64_t bytes, Dir dir, const std::string& op,
                                  StreamId stream, BufferHandle touched) {
  const double us = backend_->transfer(dir, {}, {}, bytes, false);
  const BufferHandle handles[] = {touched};
  const std::span<const BufferHandle> hazard =
      touched.valid() ? std::span<const BufferHandle>(handles) : std::span<const BufferHandle>();
  const auto iv = dir == Dir::HostToDevice ? timeline_.schedule(stream, us, {}, hazard)
                                           : timeline_.schedule(stream, us, hazard, {});
  profiler_.record_interval(op, dir == Dir::HostToDevice ? OpKind::MemcpyHtoD : OpKind::MemcpyDtoH,
                            stream, iv.start_us, iv.end_us);
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
