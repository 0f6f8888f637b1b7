#include "obs/export.hpp"

#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "core/fmt.hpp"
#include "core/json.hpp"
#include "gpu/backend_kind.hpp"

namespace saclo::obs {

namespace {

bool is_instant(EventType type) {
  switch (type) {
    case EventType::DeviceFault:
    case EventType::Failover:
    case EventType::RetryExhausted:
    case EventType::DeviceDegraded:
    case EventType::DeviceHealed:
    case EventType::BatchFormed:
    case EventType::JobPreempted:
    case EventType::JobStolen:
    case EventType::DeadlineMiss:
    case EventType::ScaleUp:
    case EventType::ScaleDown:
    case EventType::DrainStarted:
    case EventType::DrainComplete:
      return true;
    default:
      return false;
  }
}

/// Scale events also drive the fleet-level "active devices" counter
/// track: ScaleUp/ScaleDown carry the post-action active count in arg.
bool carries_active_count(EventType type) {
  return type == EventType::ScaleUp || type == EventType::ScaleDown;
}

/// Where a flow arrow attaches: a timestamp on a (pid, tid) track.
struct Anchor {
  double ts = 0.0;
  int tid = kRuntimeEventsTid;
};

const DeviceTrace* find_device(const std::vector<DeviceTrace>& devices, int index) {
  for (const DeviceTrace& d : devices) {
    if (d.device == index) return &d;
  }
  return nullptr;
}

/// End of the last interval a (job, attempt) recorded on a device.
std::optional<Anchor> last_span_end(const DeviceTrace& dev, std::uint64_t job,
                                    std::uint32_t attempt) {
  std::optional<Anchor> best;
  for (const auto& iv : dev.intervals) {
    if (iv.trace_id != job || iv.attempt != attempt) continue;
    if (!best || iv.end_us > best->ts) best = Anchor{iv.end_us, iv.stream};
  }
  return best;
}

/// Start of the first interval a (job, attempt) recorded on a device.
std::optional<Anchor> first_span_start(const DeviceTrace& dev, std::uint64_t job,
                                       std::uint32_t attempt) {
  std::optional<Anchor> best;
  for (const auto& iv : dev.intervals) {
    if (iv.trace_id != job || iv.attempt != attempt) continue;
    if (!best || iv.start_us < best->ts) best = Anchor{iv.start_us, iv.stream};
  }
  return best;
}

}  // namespace

DeviceTrace DeviceTrace::of(int device, const gpu::Profiler& profiler, std::string backend) {
  gpu::Profiler::Snapshot snap = profiler.snapshot();
  return {device, std::move(snap.intervals), std::move(backend), std::move(snap.names)};
}

void DeviceTrace::add(std::string_view name, gpu::Profiler::Interval interval) {
  std::size_t row = 0;
  while (row < names.size() && names[row] != name) ++row;
  if (row == names.size()) names.emplace_back(name);
  interval.row = static_cast<std::uint32_t>(row);
  intervals.push_back(interval);
}

std::string merged_chrome_trace(const std::vector<DeviceTrace>& devices,
                                const std::vector<Event>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    if (!first) out += ",";
    first = false;
    out += ev;
  };

  // Which devices host runtime instant events (they get the extra
  // "runtime" track).
  std::set<int> instant_pids;
  for (const Event& e : events) {
    if (is_instant(e.type) && e.device >= 0) instant_pids.insert(e.device);
  }

  for (const DeviceTrace& dev : devices) {
    std::string proc = cat("gpu", dev.device);
    if (!dev.backend.empty()) proc += cat(" (", dev.backend, ")");
    emit(cat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":", dev.device,
             ",\"args\":{\"name\":", json_string(proc), "}}"));
    std::set<gpu::StreamId> streams;
    for (const auto& iv : dev.intervals) streams.insert(iv.stream);
    for (gpu::StreamId s : streams) {
      emit(cat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", dev.device, ",\"tid\":", s,
               ",\"args\":{\"name\":\"stream ", s, "\"}}"));
    }
    if (instant_pids.count(dev.device) != 0) {
      emit(cat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", dev.device,
               ",\"tid\":", kRuntimeEventsTid, ",\"args\":{\"name\":\"runtime\"}}"));
    }
  }

  for (const DeviceTrace& dev : devices) {
    for (const auto& iv : dev.intervals) {
      std::string ev = cat("{\"name\":", json_string(dev.name_of(iv)), ",\"cat\":\"",
                           gpu::op_kind_category(iv.kind), "\",\"ph\":\"X\",\"pid\":", dev.device,
                           ",\"tid\":", iv.stream, ",\"ts\":", fixed(iv.start_us, 3),
                           ",\"dur\":", fixed(iv.duration_us(), 3));
      if (iv.trace_id != 0) {
        ev += cat(",\"args\":{\"job\":", iv.trace_id, ",\"attempt\":", iv.attempt);
        if (iv.batch != 0) ev += cat(",\"batch\":", iv.batch);
        if (!dev.backend.empty()) ev += cat(",\"backend\":", json_string(dev.backend));
        ev += "}";
      }
      emit(ev + "}");
    }
  }

  for (const Event& e : events) {
    if (!is_instant(e.type) || e.device < 0) continue;
    emit(cat("{\"name\":\"", event_type_name(e.type), "\",\"cat\":\"serve\",\"ph\":\"i\","
             "\"s\":\"t\",\"pid\":", e.device, ",\"tid\":", kRuntimeEventsTid,
             ",\"ts\":", fixed(e.t_sim_us, 3), ",\"args\":{\"job\":", e.job,
             ",\"attempt\":", e.attempt, ",\"arg\":", e.arg, "}}"));
  }

  // The autoscaler gauge track: one Chrome counter event per scale
  // action, so the merged trace shows the active-device count stepping
  // up and down against the spans it reshaped. Counter events live on
  // their own process so Perfetto renders one fleet-level track.
  bool any_scale = false;
  for (const Event& e : events) {
    if (!carries_active_count(e.type)) continue;
    if (!any_scale) {
      any_scale = true;
      emit(cat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":", kAutoscalerPid,
               ",\"args\":{\"name\":\"autoscaler\"}}"));
    }
    emit(cat("{\"name\":\"active_devices\",\"ph\":\"C\",\"pid\":", kAutoscalerPid,
             ",\"ts\":", fixed(e.t_real_us, 3), ",\"args\":{\"devices\":", e.arg, "}}"));
  }

  // One flow pair per failover hop: Failover events carry device = from
  // and arg = to, stamped with the attempt number the retry runs as.
  for (const Event& e : events) {
    if (e.type != EventType::Failover || e.attempt < 1) continue;
    const std::uint64_t flow_id = e.job * 256 + static_cast<std::uint64_t>(e.attempt);
    const int to = static_cast<int>(e.arg);
    Anchor start{e.t_sim_us, kRuntimeEventsTid};
    if (const DeviceTrace* from_dev = find_device(devices, e.device)) {
      if (auto a = last_span_end(*from_dev, e.job,
                                 static_cast<std::uint32_t>(e.attempt - 1))) {
        start = *a;
      }
    }
    emit(cat("{\"name\":\"failover\",\"cat\":\"failover\",\"ph\":\"s\",\"id\":", flow_id,
             ",\"pid\":", e.device, ",\"tid\":", start.tid, ",\"ts\":", fixed(start.ts, 3),
             "}"));
    if (const DeviceTrace* to_dev = find_device(devices, to)) {
      if (auto a = first_span_start(*to_dev, e.job, static_cast<std::uint32_t>(e.attempt))) {
        emit(cat("{\"name\":\"failover\",\"cat\":\"failover\",\"ph\":\"f\",\"bp\":\"e\","
                 "\"id\":", flow_id, ",\"pid\":", to, ",\"tid\":", a->tid,
                 ",\"ts\":", fixed(a->ts, 3), "}"));
      }
    }
  }

  out += "]}";
  return out;
}

namespace {

/// The enumerator in [0, last] whose wire name `name(e)` is the string
/// at `key`; JsonError when none is.
template <typename E, typename Name>
E enum_named(const JsonValue& v, const std::string& key, E last, Name name) {
  const std::string& text = v.string(key);
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (text == name(static_cast<E>(i))) return static_cast<E>(i);
  }
  throw JsonError(cat("unknown ", key, " '", text, "'"), v.at(key).offset);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceLoadError(cat("cannot read ", path));
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

template <typename Parse>
auto load_file(const std::string& path, Parse parse) {
  const std::string text = read_file(path);
  try {
    return parse(text);
  } catch (const TraceLoadError& e) {
    throw TraceLoadError(cat(path, ": ", e.what()));
  }
}

}  // namespace

std::vector<DeviceTrace> parse_chrome_trace(const std::string& text) {
  std::map<int, DeviceTrace> devices;
  std::size_t spans = 0;
  try {
    const JsonValue root = parse_json(text);
    const JsonValue& events = root.at("traceEvents");
    if (events.kind != JsonValue::Kind::Array) {
      throw JsonError("'traceEvents' is not an array", events.offset);
    }
    for (const JsonValue& e : events.arr) {
      const std::string& ph = e.string("ph");
      const bool device_process = ph == "M" && e.string("name") == "process_name";
      if (ph != "X" && !device_process) continue;
      const int pid = e.integer<int>("pid");
      if (pid == kAutoscalerPid) continue;
      DeviceTrace& dev = devices[pid];
      dev.device = pid;
      if (ph != "X") continue;
      gpu::Profiler::Interval iv;
      iv.kind = enum_named(e, "cat", gpu::OpKind::Host, gpu::op_kind_category);
      iv.stream = e.integer<gpu::StreamId>("tid");
      iv.start_us = e.number("ts");
      iv.end_us = iv.start_us + e.number("dur");
      dev.add(e.string("name"), iv);
      ++spans;
    }
  } catch (const JsonError& e) {
    throw TraceLoadError(cat("not a merged Chrome trace: ", e.what()));
  }
  if (spans == 0) throw TraceLoadError("the trace has no complete (\"X\") spans to attribute");
  std::vector<DeviceTrace> out;
  out.reserve(devices.size());
  for (auto& [pid, dev] : devices) out.push_back(std::move(dev));
  return out;
}

std::vector<Event> parse_event_log(const std::string& text) {
  std::vector<Event> events;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    try {
      const JsonValue v = parse_json(line);
      if (v.string("event") == "log_summary") continue;
      Event e;
      e.type = enum_named(v, "event", EventType::AlertCleared, event_type_name);
      e.backend = static_cast<std::uint8_t>(
          enum_named(v, "backend", gpu::BackendKind::Host, gpu::backend_kind_name));
      e.t_real_us = v.number("t_real_us");
      e.t_sim_us = v.number("t_sim_us");
      e.job = v.integer<std::uint64_t>("job");
      e.device = v.integer<std::int32_t>("device");
      e.attempt = v.integer<std::int32_t>("attempt");
      e.arg = v.integer<std::int64_t>("arg");
      events.push_back(e);
    } catch (const JsonError& e) {
      throw TraceLoadError(cat("line ", line_no, ": malformed event line (", e.what(), ")"));
    }
  }
  return events;
}

std::vector<DeviceTrace> load_chrome_trace(const std::string& path) {
  return load_file(path, parse_chrome_trace);
}

std::vector<Event> load_event_log(const std::string& path) {
  return load_file(path, parse_event_log);
}

}  // namespace saclo::obs
