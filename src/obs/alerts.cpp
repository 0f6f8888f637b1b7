#include "obs/alerts.hpp"

#include <algorithm>

#include "core/fmt.hpp"
#include "core/json.hpp"

namespace saclo::obs {

namespace {

/// Finds the tenant's counters in one sample; nullptr when the tenant
/// had not appeared yet.
const TenantCounters* find_tenant(const AlertSample& sample, const std::string& tenant) {
  for (const TenantCounters& t : sample.tenants) {
    if (t.tenant == tenant) return &t;
  }
  return nullptr;
}

}  // namespace

const char* alert_kind_name(AlertKind kind) {
  switch (kind) {
    case AlertKind::SloBurnRate: return "slo_burn_rate";
    case AlertKind::QueueSaturation: return "queue_saturation";
    case AlertKind::DeviceDegraded: return "device_degraded";
  }
  return "unknown";
}

void AlertPolicy::validate() const {
  if (slo_objective <= 0.0 || slo_objective >= 1.0) {
    throw AlertError(cat("alerts: slo_objective must be in (0, 1), got ", slo_objective));
  }
  if (fast_window_ms <= 0.0) {
    throw AlertError(cat("alerts: fast_window_ms must be positive, got ", fast_window_ms));
  }
  if (slow_window_ms < fast_window_ms) {
    throw AlertError(cat("alerts: slow_window_ms (", slow_window_ms,
                         ") must be >= fast_window_ms (", fast_window_ms, ")"));
  }
  if (fast_burn <= 0.0 || slow_burn <= 0.0) {
    throw AlertError("alerts: burn-rate thresholds must be positive");
  }
  if (queue_saturation <= 0.0 || queue_saturation > 1.0) {
    throw AlertError(cat("alerts: queue_saturation must be in (0, 1], got ", queue_saturation));
  }
  if (clear_hold_ms < 0.0) {
    throw AlertError(cat("alerts: clear_hold_ms must be >= 0, got ", clear_hold_ms));
  }
}

AlertEngine::AlertEngine(const AlertPolicy& policy) : policy_(policy) { policy_.validate(); }

double AlertEngine::burn_rate(const std::string& tenant, double window_ms) const {
  if (history_.empty()) return 0.0;
  const AlertSample& latest = history_.back();
  const TenantCounters* now = find_tenant(latest, tenant);
  if (now == nullptr) return 0.0;
  // Baseline: the newest sample at or before the window start. With no
  // sample that old yet (cold start) the earliest one stands in, so a
  // young engine still reacts instead of reporting a zero rate.
  const double window_start = latest.now_ms - window_ms;
  const AlertSample* base = &history_.front();
  for (const AlertSample& s : history_) {
    if (s.now_ms <= window_start) base = &s;
  }
  const TenantCounters* then = find_tenant(*base, tenant);
  const std::int64_t jobs0 = then != nullptr ? then->slo_jobs : 0;
  const std::int64_t met0 = then != nullptr ? then->slo_met : 0;
  const std::int64_t jobs = now->slo_jobs - jobs0;
  const std::int64_t met = now->slo_met - met0;
  if (jobs <= 0) return 0.0;  // no completed SLO jobs in window: nothing burned
  const double error_rate = static_cast<double>(jobs - met) / static_cast<double>(jobs);
  return error_rate / (1.0 - policy_.slo_objective);
}

void AlertEngine::evaluate(AlertKind kind, const std::string& subject, bool hot, double value,
                           double now_ms, std::vector<AlertTransition>& out) {
  const auto key = std::make_pair(static_cast<int>(kind), subject);
  AlertState& state = states_[key];
  if (hot) {
    state.healthy_since_ms = -1;
    if (!state.firing) {
      state.firing = true;
      active_[key] = ActiveAlert{kind, subject, now_ms, value};
      out.push_back(AlertTransition{kind, true, subject, now_ms, value});
    }
    return;
  }
  if (!state.firing) return;
  if (state.healthy_since_ms < 0) {
    state.healthy_since_ms = now_ms;
    if (policy_.clear_hold_ms > 0) return;
  }
  if (now_ms - state.healthy_since_ms >= policy_.clear_hold_ms) {
    state.firing = false;
    state.healthy_since_ms = -1;
    active_.erase(key);
    out.push_back(AlertTransition{kind, false, subject, now_ms, value});
  }
}

std::vector<AlertTransition> AlertEngine::step(const AlertSample& sample) {
  if (!history_.empty() && sample.now_ms < history_.back().now_ms) {
    throw AlertError(cat("alerts: samples must be in clock order (", sample.now_ms, " after ",
                         history_.back().now_ms, ")"));
  }
  history_.push_back(sample);
  // Keep one baseline older than the slow window; drop the rest.
  while (history_.size() >= 2 &&
         history_[1].now_ms <= sample.now_ms - policy_.slow_window_ms) {
    history_.pop_front();
  }

  std::vector<AlertTransition> out;
  for (const TenantCounters& t : sample.tenants) {
    const double fast = burn_rate(t.tenant, policy_.fast_window_ms);
    const double slow = burn_rate(t.tenant, policy_.slow_window_ms);
    const bool hot = fast >= policy_.fast_burn && slow >= policy_.slow_burn;
    evaluate(AlertKind::SloBurnRate, t.tenant, hot, fast, sample.now_ms, out);
  }
  const double saturation =
      sample.queue_capacity > 0
          ? static_cast<double>(sample.queued) / static_cast<double>(sample.queue_capacity)
          : 0.0;
  evaluate(AlertKind::QueueSaturation, "", saturation >= policy_.queue_saturation, saturation,
           sample.now_ms, out);
  evaluate(AlertKind::DeviceDegraded, "", sample.degraded_devices > 0,
           static_cast<double>(sample.degraded_devices), sample.now_ms, out);
  return out;
}

std::vector<ActiveAlert> AlertEngine::active() const {
  std::vector<ActiveAlert> out;
  out.reserve(active_.size());
  for (const auto& [key, alert] : active_) out.push_back(alert);
  return out;
}

std::string alert_transition_json(const AlertTransition& transition) {
  return cat("{\"type\":\"", transition.raised ? "alert_raised" : "alert_cleared",
             "\",\"kind\":\"", alert_kind_name(transition.kind), "\",\"subject\":",
             json_string(transition.subject), ",\"t_ms\":", fixed(transition.at_ms, 3),
             ",\"value\":", fixed(transition.value, 4), "}");
}

}  // namespace saclo::obs
