#include "gpu/backend.hpp"

#include <chrono>

#include "gpu/executor.hpp"

namespace saclo::gpu {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - since)
      .count();
}

/// The analytic simulator: durations come from the calibrated cost
/// model, functional execution from the thread pool — the original
/// VirtualGpu behaviour, now one of the two implementations.
class SimBackend : public ExecutionBackend {
 public:
  SimBackend(const DeviceSpec& spec, ThreadPool& pool) : spec_(spec), pool_(pool) {}

  BackendKind kind() const override { return BackendKind::Sim; }

  double launch_kernel(const KernelLaunch& kernel, bool execute) override {
    notify_kernel(kernel);
    if (execute && kernel.body) pool_.parallel_for(kernel.threads, kernel.body);
    return kernel_time_us(spec_, kernel.threads, kernel.cost);
  }

  double transfer(Dir dir, std::int64_t bytes, std::int64_t blocks,
                  const TransferFn& move) override {
    notify_transfer(dir, bytes);
    if (move) pool_.parallel_for(blocks, move);
    return transfer_time_us(spec_, bytes, dir);
  }

 private:
  DeviceSpec spec_;
  ThreadPool& pool_;
};

/// The host-parallel backend: the same frame loops run for real on the
/// CPU. Kernel bodies execute through the thread pool exactly as under
/// `sim`, and executed operations are timed with the wall clock, so the
/// device timeline carries what the CPU actually did. Accounting-only
/// repetitions (execute=false, or a transfer without a move function)
/// have no real work to measure and charge the analytic model, exactly
/// like the simulator; results stay bit-exact against `sim` because the
/// bodies and the copies (converting ones included) are the same
/// computations in the same issue order.
class HostParallelBackend : public ExecutionBackend {
 public:
  HostParallelBackend(const DeviceSpec& spec, ThreadPool& pool) : spec_(spec), pool_(pool) {}

  BackendKind kind() const override { return BackendKind::Host; }

  double launch_kernel(const KernelLaunch& kernel, bool execute) override {
    notify_kernel(kernel);
    if (!execute || !kernel.body) {
      return kernel_time_us(spec_, kernel.threads, kernel.cost);
    }
    const auto t0 = std::chrono::steady_clock::now();
    pool_.parallel_for(kernel.threads, kernel.body);
    return elapsed_us(t0);
  }

  double transfer(Dir dir, std::int64_t bytes, std::int64_t blocks,
                  const TransferFn& move) override {
    notify_transfer(dir, bytes);
    if (!move) return transfer_time_us(spec_, bytes, dir);
    const auto t0 = std::chrono::steady_clock::now();
    pool_.parallel_for(blocks, move);
    return elapsed_us(t0);
  }

 private:
  DeviceSpec spec_;
  ThreadPool& pool_;
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const DeviceSpec& spec,
                                               ThreadPool& pool) {
  switch (kind) {
    case BackendKind::Sim:
      return std::make_unique<SimBackend>(spec, pool);
    case BackendKind::Host:
      return std::make_unique<HostParallelBackend>(spec, pool);
  }
  throw BackendError("unknown BackendKind");
}

std::vector<BackendKind> available_backends() { return {BackendKind::Sim, BackendKind::Host}; }

}  // namespace saclo::gpu
