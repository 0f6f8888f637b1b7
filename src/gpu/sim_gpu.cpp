#include "gpu/sim_gpu.hpp"

#include <algorithm>

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
/// A copy of elements [0, size) from `from` to `to`, moved kTransferBlock
/// elements a block. A transfer's move captures a pointer to one.
template <typename To, typename From>
struct Blockwise {
  std::span<To> to;
  std::span<From> from;

  void operator()(std::int64_t begin, std::int64_t end) const {
    const auto n = static_cast<std::int64_t>(to.size());
    const std::int64_t first = begin * kTransferBlock;
    const std::int64_t last = std::min(end * kTransferBlock, n);
    std::copy(from.begin() + first, from.begin() + last, to.begin() + first);
  }
  TransferFn move() const {
    return [this](std::int64_t begin, std::int64_t end) { (*this)(begin, end); };
  }
};
}  // namespace

void VirtualGpu::transfer(Dir dir, BufferHandle touched, std::int64_t bytes,
                          std::string_view op, std::int64_t blocks, const TransferFn& move,
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

void VirtualGpu::copy_h2d(BufferHandle dst, std::span<const std::byte> src, std::string_view op,
                          bool execute, StreamId stream) {
  const auto dest = memory_.bytes(dst);
  if (src.size() > dest.size()) {
    throw DeviceMemoryError(cat("copy_h2d of ", src.size(), " bytes into ", dest.size(),
                                "-byte device buffer"));
  }
  const auto n = static_cast<std::int64_t>(src.size());
  const Blockwise<std::byte, const std::byte> copy{dest.first(src.size()), src};
  transfer(Dir::HostToDevice, dst, n, op, transfer_blocks(n),
           execute && n > 0 ? copy.move() : TransferFn(), stream);
}

void VirtualGpu::copy_d2h(std::span<std::byte> dst, BufferHandle src, std::string_view op,
                          bool execute, StreamId stream) {
  const auto source = memory_.bytes(src);
  if (dst.size() > source.size()) {
    throw DeviceMemoryError(cat("copy_d2h of ", dst.size(), " bytes from ", source.size(),
                                "-byte device buffer"));
  }
  const auto n = static_cast<std::int64_t>(dst.size());
  const Blockwise<std::byte, const std::byte> copy{dst, source.first(dst.size())};
  transfer(Dir::DeviceToHost, src, n, op, transfer_blocks(n),
           execute && n > 0 ? copy.move() : TransferFn(), stream);
}

void VirtualGpu::upload_frame(BufferHandle dst, std::span<const std::int64_t> src,
                              std::string_view op, StreamId stream) {
  const auto dev = memory_.view<std::int32_t>(dst);
  if (src.size() != dev.size()) {
    throw DeviceMemoryError(cat("upload_frame of ", src.size(), " elements into ", dev.size(),
                                "-element device buffer"));
  }
  const auto n = static_cast<std::int64_t>(src.size());
  const Blockwise<std::int32_t, const std::int64_t> copy{dev, src};
  transfer(Dir::HostToDevice, dst, dst.bytes, op, transfer_blocks(n), copy.move(), stream);
}

std::vector<std::int64_t> VirtualGpu::download_frame(BufferHandle src, std::string_view op,
                                                     StreamId stream) {
  const auto dev = memory_.view<std::int32_t>(src);
  std::vector<std::int64_t> host(dev.size());
  const auto n = static_cast<std::int64_t>(dev.size());
  const Blockwise<std::int64_t, const std::int32_t> copy{host, dev};
  transfer(Dir::DeviceToHost, src, src.bytes, op, transfer_blocks(n), copy.move(), stream);
  return host;
}

double VirtualGpu::launch(const KernelLaunch& kernel, bool execute, StreamId stream) {
  const double us = backend_->launch_kernel(kernel, execute);
  const auto iv = timeline_.schedule(stream, us, kernel.reads, kernel.writes);
  profiler_.record_interval(kernel.name, OpKind::Kernel, stream, iv.start_us, iv.end_us);
  return us;
}

double VirtualGpu::run_host(std::string_view op, double us, StreamId stream) {
  const auto iv = timeline_.schedule(stream, us);
  profiler_.record_interval(op, OpKind::Host, stream, iv.start_us, iv.end_us);
  return iv.end_us;
}

}  // namespace saclo::gpu
