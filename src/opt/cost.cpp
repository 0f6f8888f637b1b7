#include "opt/cost.hpp"

#include <algorithm>
#include <cstdlib>

namespace saclo::opt {

namespace {

/// Warp-adjacent address stride of a port: work item r0+1 moves the
/// reference element by the first paving column.
std::int64_t port_stride(const aol::TiledPort& tp, const Shape& array_shape) {
  const Index strides = array_shape.strides();
  std::int64_t delta = 0;
  for (std::size_t d = 0; d < array_shape.rank(); ++d) {
    delta += tp.tiler.paving.at(d, 0) * strides[d];
  }
  return std::llabs(delta);
}

}  // namespace

gpu::KernelCost derive_task_cost(const aol::Model& model, const aol::RepetitiveTask& task) {
  double loads = 0;
  double stores = 0;
  std::int64_t stride = 1;
  for (const aol::TiledPort& in : task.inputs) {
    loads += static_cast<double>(in.pattern.elements());
    stride = std::max(stride, port_stride(in, model.array_shape(in.port.name)));
  }
  for (const aol::TiledPort& out : task.outputs) {
    stores += static_cast<double>(out.pattern.elements());
    stride = std::max(stride, port_stride(out, model.array_shape(out.port.name)));
  }
  gpu::KernelCost cost;
  cost.global_loads_per_thread = loads;
  cost.global_stores_per_thread = stores;
  // Index arithmetic: ~4 ops per addressed element, plus the IP.
  cost.flops_per_thread = 4.0 * (loads + stores) + static_cast<double>(task.op.flops());
  cost.warp_access_stride = stride;
  cost.bytes_per_access = 4;
  return cost;
}

ModelCost predict_model_cost(const aol::Model& model, const gpu::DeviceSpec& device) {
  ModelCost mc;
  for (const aol::RepetitiveTask& task : model.tasks()) {
    mc.kernel_us +=
        gpu::kernel_time_us(device, task.repetition.elements(), derive_task_cost(model, task));
    ++mc.kernels;
  }
  for (const std::string& in : model.inputs()) {
    mc.h2d_us += gpu::transfer_time_us(device, model.array_shape(in).elements() * 4,
                                       gpu::Dir::HostToDevice);
  }
  for (const std::string& out : model.outputs()) {
    mc.d2h_us += gpu::transfer_time_us(device, model.array_shape(out).elements() * 4,
                                       gpu::Dir::DeviceToHost);
  }
  return mc;
}

}  // namespace saclo::opt
