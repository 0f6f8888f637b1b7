#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/fmt.hpp"

namespace saclo::obs {

namespace {

std::string pct(double part, double whole) {
  return whole > 0.0 ? cat(fixed(100.0 * part / whole, 1), "%") : "-";
}

}  // namespace

const char* route_of_kernel(const std::string& name) {
  return name.rfind("KRN_", 0) == 0 ? "gaspard" : "sac";
}

CriticalPath analyze_critical_path(const std::vector<DeviceTrace>& devices,
                                   const std::vector<Event>& events) {
  CriticalPath path;
  std::map<std::string, StageAttribution> stages;
  std::map<std::string, RouteAttribution> routes;

  for (const DeviceTrace& dev : devices) {
    DeviceAttribution d;
    d.device = dev.device;
    std::vector<std::pair<double, double>> busy;
    busy.reserve(dev.intervals.size());
    for (const auto& iv : dev.intervals) {
      const double dur = iv.duration_us();
      switch (iv.kind) {
        case gpu::OpKind::Kernel: d.kernel_us += dur; break;
        case gpu::OpKind::MemcpyHtoD: d.h2d_us += dur; break;
        case gpu::OpKind::MemcpyDtoH: d.d2h_us += dur; break;
        case gpu::OpKind::Host: d.host_us += dur; break;
      }
      busy.emplace_back(iv.start_us, iv.end_us);
      d.span_us = std::max(d.span_us, iv.end_us);

      const std::string& name = dev.name_of(iv);
      StageAttribution& stage = stages[name];
      if (stage.name.empty()) {
        stage.name = name;
        stage.category = gpu::op_kind_category(iv.kind);
      }
      stage.calls += 1;
      stage.total_us += dur;

      if (iv.kind == gpu::OpKind::Kernel) {
        RouteAttribution& route = routes[route_of_kernel(name)];
        if (route.route.empty()) route.route = route_of_kernel(name);
        route.spans += 1;
        route.kernel_us += dur;
      }
    }
    for (const auto& [begin, end] : gpu::merge_spans(std::move(busy))) d.busy_us += end - begin;
    path.makespan_us = std::max(path.makespan_us, d.span_us);
    path.devices.push_back(std::move(d));
  }

  // Queue wait and stall counts come from the event log: admitted ->
  // first dispatch is the time the fleet made the job wait.
  std::map<std::uint64_t, double> admitted_at;
  std::map<std::uint64_t, bool> dispatched;
  auto device_row = [&](int device) -> DeviceAttribution* {
    for (DeviceAttribution& d : path.devices) {
      if (d.device == device) return &d;
    }
    return nullptr;
  };
  for (const Event& e : events) {
    switch (e.type) {
      case EventType::JobAdmitted:
        admitted_at[e.job] = e.t_real_us;
        break;
      case EventType::JobDispatched: {
        auto it = admitted_at.find(e.job);
        if (it != admitted_at.end() && !dispatched[e.job]) {
          dispatched[e.job] = true;
          const double wait = e.t_real_us - it->second;
          if (wait >= 0) {
            path.jobs_waited += 1;
            path.queue_wait_total_us += wait;
            path.queue_wait_max_us = std::max(path.queue_wait_max_us, wait);
          }
        }
        break;
      }
      case EventType::JobPreempted: {
        path.preemptions += 1;
        if (DeviceAttribution* d = device_row(e.device)) d->preemptions += 1;
        break;
      }
      case EventType::DeviceFault: {
        if (DeviceAttribution* d = device_row(e.device)) d->faults += 1;
        break;
      }
      case EventType::Failover:
        path.failovers += 1;
        break;
      case EventType::DrainStarted: {
        path.drains += 1;
        if (DeviceAttribution* d = device_row(e.device)) d->drains += 1;
        break;
      }
      default:
        break;
    }
  }

  // Stages equal to the report's 0.1 us precision sort by name, so the
  // analyzer over the exported files (0.001 us per span) lists them in
  // the same order as the live one.
  for (auto& [name, stage] : stages) path.stages.push_back(std::move(stage));
  std::sort(path.stages.begin(), path.stages.end(),
            [](const StageAttribution& a, const StageAttribution& b) {
              const std::int64_t ta = std::llround(a.total_us * 10);
              const std::int64_t tb = std::llround(b.total_us * 10);
              return ta != tb ? ta > tb : a.name < b.name;
            });
  for (auto& [name, route] : routes) path.routes.push_back(std::move(route));
  std::sort(path.routes.begin(), path.routes.end(),
            [](const RouteAttribution& a, const RouteAttribution& b) {
              return a.kernel_us != b.kernel_us ? a.kernel_us > b.kernel_us
                                                : a.route < b.route;
            });
  return path;
}

std::string critical_path_report(const CriticalPath& path) {
  std::string out = cat("critical path — fleet makespan ", fixed(path.makespan_us, 1),
                        " us (simulated)\n\n");
  out += cat(pad_right("device", 8), pad_right("busy", 8), pad_right("kernel", 8), pad_right("h2d", 8), pad_right("d2h", 8),
             pad_right("host", 8), pad_right("idle", 8), pad_right("stalls (preempt/fault/drain)", 30), "\n");
  double fleet_busy = 0.0;
  for (const DeviceAttribution& d : path.devices) {
    fleet_busy += d.busy_us;
    out += cat(pad_right(cat("gpu", d.device), 8), pad_right(pct(d.busy_us, d.span_us), 8),
               pad_right(pct(d.kernel_us, d.span_us), 8), pad_right(pct(d.h2d_us, d.span_us), 8),
               pad_right(pct(d.d2h_us, d.span_us), 8), pad_right(pct(d.host_us, d.span_us), 8),
               pad_right(pct(d.idle_us(), d.span_us), 8),
               pad_right(cat(d.preemptions, "/", d.faults, "/", d.drains), 30), "\n");
  }
  out += cat("\nqueue wait (real): ", path.jobs_waited, " jobs, total ",
             fixed(path.queue_wait_total_us, 1), " us, mean ",
             fixed(path.jobs_waited > 0 ? path.queue_wait_total_us / path.jobs_waited : 0.0, 1),
             " us, max ", fixed(path.queue_wait_max_us, 1), " us\n");
  out += cat("stalls: ", path.preemptions, " preemptions, ", path.failovers, " failovers, ",
             path.drains, " drains\n");

  if (!path.routes.empty()) {
    out += "\nroutes (kernel time):\n";
    for (const RouteAttribution& r : path.routes) {
      out += cat("  ", pad_right(r.route, 10), fixed(r.kernel_us, 1), " us over ", r.spans,
                 " spans\n");
    }
  }

  if (!path.stages.empty()) {
    out += cat("\ntop stages (of ", path.stages.size(), "):\n");
    out += cat("  ", pad_right("stage", 28), pad_right("cat", 12), pad_right("calls", 8), pad_right("total us", 12),
               pad_right("% busy", 8), "\n");
    const std::size_t n = std::min<std::size_t>(10, path.stages.size());
    for (std::size_t i = 0; i < n; ++i) {
      const StageAttribution& s = path.stages[i];
      out += cat("  ", pad_right(s.name, 28), pad_right(s.category, 12), pad_right(cat(s.calls), 8),
                 pad_right(fixed(s.total_us, 1), 12), pad_right(pct(s.total_us, fleet_busy), 8), "\n");
    }
  }
  return out;
}

}  // namespace saclo::obs
