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

namespace {
/// A transfer body over elements [0, n) from an element-range copy.
template <typename Copy>
TransferFn blockwise(std::int64_t n, Copy copy) {
  return [n, copy](std::int64_t begin, std::int64_t end) {
    copy(begin * kTransferBlock, std::min(end * kTransferBlock, n));
  };
}
}  // namespace

void VirtualGpu::transfer(Dir dir, BufferHandle touched, std::int64_t bytes,
                          const std::string& op, std::int64_t blocks, const TransferFn& move,
                          StreamId stream) {
  const double us = backend_->transfer(dir, bytes, blocks, move);
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
  const auto n = static_cast<std::int64_t>(src.size());
  TransferFn move;
  if (execute && n > 0) {
    move = blockwise(n, [dest, src](std::int64_t begin, std::int64_t end) {
      std::memcpy(dest.data() + begin, src.data() + begin, static_cast<std::size_t>(end - begin));
    });
  }
  transfer(Dir::HostToDevice, dst, n, op, transfer_blocks(n), move, stream);
}

void VirtualGpu::copy_d2h(std::span<std::byte> dst, BufferHandle src, const std::string& op,
                          bool execute, StreamId stream) {
  const auto source = memory_.bytes(src);
  if (dst.size() > source.size()) {
    throw DeviceMemoryError(cat("copy_d2h of ", dst.size(), " bytes from ", source.size(),
                                "-byte device buffer"));
  }
  const auto n = static_cast<std::int64_t>(dst.size());
  TransferFn move;
  if (execute && n > 0) {
    move = blockwise(n, [dst, source](std::int64_t begin, std::int64_t end) {
      std::memcpy(dst.data() + begin, source.data() + begin, static_cast<std::size_t>(end - begin));
    });
  }
  transfer(Dir::DeviceToHost, src, n, op, transfer_blocks(n), move, stream);
}

void VirtualGpu::upload_frame(BufferHandle dst, std::span<const std::int64_t> src,
                              const std::string& op, StreamId stream) {
  const auto dev = memory_.view<std::int32_t>(dst);
  if (src.size() != dev.size()) {
    throw DeviceMemoryError(cat("upload_frame of ", src.size(), " elements into ", dev.size(),
                                "-element device buffer"));
  }
  const auto n = static_cast<std::int64_t>(src.size());
  const TransferFn move = blockwise(n, [dev, src](std::int64_t begin, std::int64_t end) {
    std::copy(src.begin() + begin, src.begin() + end, dev.begin() + begin);
  });
  transfer(Dir::HostToDevice, dst, dst.bytes, op, transfer_blocks(n), move, stream);
}

std::vector<std::int64_t> VirtualGpu::download_frame(BufferHandle src, const std::string& op,
                                                     StreamId stream) {
  const auto dev = memory_.view<std::int32_t>(src);
  std::vector<std::int64_t> host(dev.size());
  const std::span<std::int64_t> out(host);
  const auto n = static_cast<std::int64_t>(dev.size());
  const TransferFn move = blockwise(n, [dev, out](std::int64_t begin, std::int64_t end) {
    std::copy(dev.begin() + begin, dev.begin() + end, out.begin() + begin);
  });
  transfer(Dir::DeviceToHost, src, src.bytes, op, transfer_blocks(n), move, stream);
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
