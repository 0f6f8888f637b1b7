#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/alerts.hpp"

namespace saclo::serve {

class ServeRuntime;

/// How the alert monitor samples the fleet.
struct AlertMonitorOptions {
  obs::AlertPolicy policy;
  /// Sampling period of the background thread (real milliseconds).
  /// <= 0 starts no thread: the owner drives evaluation explicitly
  /// through sample_now() — the deterministic-test mode.
  double interval_ms = 25.0;
};

/// The closed loop around the pure AlertEngine: a sampling thread (the
/// Autoscaler discipline) that periodically snapshots a live runtime's
/// metrics, feeds them to the engine, and forwards every transition to
/// the runtime — which records the alert_raised/alert_cleared wire
/// events and refreshes the active-alerts gauge. When the
/// runtime has a telemetry server, construction also mounts /alerts
/// on it.
///
/// Construction starts the loop; stop() (or the destructor) joins it.
/// Destroy the monitor before the runtime.
class AlertMonitor {
 public:
  AlertMonitor(ServeRuntime& runtime, const AlertMonitorOptions& options);
  ~AlertMonitor();

  AlertMonitor(const AlertMonitor&) = delete;
  AlertMonitor& operator=(const AlertMonitor&) = delete;

  /// Stops the sampling thread and unmounts /alerts. Idempotent.
  void stop();

  /// Takes one sample and evaluates it right now (also what the
  /// background thread calls each period). Returns the transitions
  /// this evaluation produced.
  std::vector<obs::AlertTransition> sample_now();

  /// Alerts currently firing.
  std::vector<obs::ActiveAlert> active() const;
  /// Every transition observed so far, in order.
  std::vector<obs::AlertTransition> transitions() const;
  /// The alert log: one JSON line per transition (what
  /// `saclo-serve --alerts-out` writes and CI archives).
  std::string transitions_jsonl() const;
  /// The /alerts endpoint body: active alerts + transition history.
  std::string alerts_json() const;

 private:
  void loop();
  std::vector<obs::AlertTransition> evaluate_locked(double now_ms);

  ServeRuntime& runtime_;
  AlertMonitorOptions options_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;
  obs::AlertEngine engine_;                           // guarded by mutex_
  std::vector<obs::AlertTransition> transitions_;     // guarded by mutex_
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace saclo::serve
