#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.hpp"

namespace saclo::obs {

/// Where one device's share of the fleet makespan went. Times are
/// simulated microseconds on the device's own timeline; `span_us` is
/// the device's last interval end (its local makespan), `busy_us` the
/// union of its busy intervals (overlapping streams counted once), so
/// `span_us - busy_us` is true idle gap, not double-counted overlap.
struct DeviceAttribution {
  int device = 0;
  double kernel_us = 0;
  double h2d_us = 0;
  double d2h_us = 0;
  double host_us = 0;
  double busy_us = 0;  ///< union of busy intervals across streams
  double span_us = 0;  ///< device-local makespan
  std::int64_t preemptions = 0;  ///< JobPreempted events here
  std::int64_t faults = 0;       ///< DeviceFault events here
  std::int64_t drains = 0;       ///< DrainStarted events here

  double idle_us() const { return span_us > busy_us ? span_us - busy_us : 0.0; }
};

/// One named operation's aggregate across the fleet (the per-stage
/// occupancy table).
struct StageAttribution {
  std::string name;
  std::string category;  ///< "kernel" / "memcpy_h2d" / "memcpy_d2h" / "host"
  std::int64_t calls = 0;
  double total_us = 0;
};

/// Kernel time grouped by compilation route, classified from the span
/// name (the GASPARD chain emits `KRN_*` kernels; everything else is
/// the SaC route).
struct RouteAttribution {
  std::string route;
  std::int64_t spans = 0;
  double kernel_us = 0;
};

/// The full makespan attribution `saclo-serve --analyze` reports live
/// and `saclo-serve --analyze-trace` reports from archived artifacts.
struct CriticalPath {
  double makespan_us = 0;  ///< max device-local makespan
  // Queue wait is real (wall-clock) time between job_admitted and the
  // first job_dispatched, from the event log — the one attribution the
  // simulated spans cannot carry.
  std::int64_t jobs_waited = 0;
  double queue_wait_total_us = 0;
  double queue_wait_max_us = 0;
  std::int64_t preemptions = 0;
  std::int64_t failovers = 0;
  std::int64_t drains = 0;
  std::vector<DeviceAttribution> devices;
  std::vector<StageAttribution> stages;  ///< sorted by total_us, descending
  std::vector<RouteAttribution> routes;  ///< sorted by kernel_us, descending
};

/// Classifies a kernel span name into its compilation route ("gaspard"
/// for the chain's `KRN_*` kernels, "sac" otherwise). Exposed for
/// tests.
const char* route_of_kernel(const std::string& name);

/// Walks the merged per-device traces and the event log and attributes
/// the fleet makespan to compute vs. transfer vs. queue wait vs.
/// preemption/drain stalls.
CriticalPath analyze_critical_path(const std::vector<DeviceTrace>& devices,
                                   const std::vector<Event>& events);

/// Renders the bottleneck table (the summary `saclo-serve --analyze`
/// prints); the per-stage section lists the top 10.
std::string critical_path_report(const CriticalPath& path);

}  // namespace saclo::obs
