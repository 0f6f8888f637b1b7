#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "gpu/profiler.hpp"
#include "obs/events.hpp"

namespace saclo::obs {

/// One device's contribution to the fleet-merged Chrome trace: its
/// index, the profiler intervals it recorded (each on the device's own
/// simulated timeline, which starts at 0) and the operation names they
/// refer to.
struct DeviceTrace {
  int device = 0;
  std::vector<gpu::Profiler::Interval> intervals;
  /// Execution backend the device ran on ("sim", "host", ...). Empty
  /// (the default) keeps the bare "gpuN" process name; when set, the
  /// process name reads "gpuN (backend)" and traced spans carry a
  /// "backend" arg.
  std::string backend;
  /// Operation names, by Interval::row.
  std::vector<std::string> names;

  /// A snapshot of `profiler`'s intervals, safe to take mid-run.
  static DeviceTrace of(int device, const gpu::Profiler& profiler, std::string backend = {});
  const std::string& name_of(const gpu::Profiler::Interval& interval) const {
    return names.at(interval.row);
  }
  /// Appends `interval` as an occurrence of operation `name`, which
  /// becomes its row.
  void add(std::string_view name, gpu::Profiler::Interval interval);
};

/// The tid the merged trace parks runtime instant events on (faults,
/// failovers, degrade/heal) — far above any real stream id, named
/// "runtime" via thread_name metadata.
inline constexpr int kRuntimeEventsTid = 999;

/// The pid of the fleet-level "autoscaler" counter track: ScaleUp /
/// ScaleDown events render as Chrome counter ("C") events there, so the
/// active-device count steps visibly against the device spans. Far
/// above any real device index.
inline constexpr int kAutoscalerPid = 9999;

/// Renders the fleet-wide merged Chrome `trace_event` JSON: one file
/// across all devices with pid = device, tid = stream. Emits
/// process/thread-name metadata, one complete ("X") event per interval
/// (with {"job", "attempt"} args when traced), instant ("i") events for
/// faults/failovers/degrade/heal from the structured event log, and a
/// flow-event pair ("s" -> "f") per failover hop linking the faulted
/// attempt's last span on the source device to the retried attempt's
/// first span on the target device. Load in chrome://tracing or
/// Perfetto; timestamps are each device's simulated microseconds.
std::string merged_chrome_trace(const std::vector<DeviceTrace>& devices,
                                const std::vector<Event>& events);

/// A trace artifact that cannot be read back: a missing file, a file
/// that is not a merged Chrome trace, a trace with no spans, or a
/// malformed event-log line.
class TraceLoadError : public Error {
 public:
  using Error::Error;
};

/// Reads a merged Chrome trace (merged_chrome_trace output) back into
/// what the critical-path analyzer needs: one DeviceTrace per device
/// process, sorted by device, holding its complete ("X") spans in file
/// order with name, category, stream and times (0.001 us precision).
/// Job ids, attempts, batches and the backend are not read back.
std::vector<DeviceTrace> parse_chrome_trace(const std::string& text);
/// Reads an event log (EventLog::jsonl) back into events, skipping
/// blank lines and the closing log_summary line. Times carry the
/// file's precision (0.1 us real, 0.001 us simulated).
std::vector<Event> parse_event_log(const std::string& text);
/// The same two readers on files; errors name the path.
std::vector<DeviceTrace> load_chrome_trace(const std::string& path);
std::vector<Event> load_event_log(const std::string& path);

}  // namespace saclo::obs
