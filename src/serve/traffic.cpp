#include "serve/traffic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <random>
#include <thread>

#include "core/fmt.hpp"
#include "core/json.hpp"
#include "serve/admission.hpp"
#include "serve/scheduler.hpp"

namespace saclo::serve {

namespace {

// ---------------------------------------------------------------------------
// Deterministic sampling. std::*_distribution output is
// implementation-defined, so a trace generated on libstdc++ would not
// match one generated on libc++ — every draw here is hand-rolled
// inverse-transform from raw mt19937_64 output (whose sequence IS
// pinned by the standard).

/// Uniform in [0, 1): the top 53 bits of one engine draw.
double u01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Exponential inter-arrival gap with the given rate (events per ms).
double exp_gap_ms(std::mt19937_64& rng, double rate_per_ms) {
  return -std::log(1.0 - u01(rng)) / rate_per_ms;
}

/// Geometric (support 1, 2, ...) with the given mean >= 1.
std::int64_t geometric_size(std::mt19937_64& rng, double mean) {
  if (mean <= 1.0) return 1;
  const double p = 1.0 / mean;  // success probability
  const double u = u01(rng);
  return 1 + static_cast<std::int64_t>(std::log(1.0 - u) / std::log(1.0 - p));
}

/// Draws a class index by weight.
std::size_t draw_class(std::mt19937_64& rng, const std::vector<TrafficClass>& classes,
                       double total_weight) {
  const double r = u01(rng) * total_weight;
  double cum = 0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    cum += classes[i].weight;
    if (r < cum) return i;
  }
  return classes.size() - 1;
}

/// The sinusoidal diurnal rate at trace time t (events per ms).
double rate_at_ms(const TrafficSpec& spec, double t_ms) {
  const double base = spec.base_rate_hz / 1000.0;
  return base * (1.0 + spec.diurnal_amplitude *
                           std::sin(2.0 * 3.14159265358979323846 * t_ms /
                                    spec.diurnal_period_ms));
}

/// Canonical number rendering: integers without decimals (seed, frame
/// counts), everything else with four — enough that a parse/print
/// round trip is the identity on to_json() output.
std::string num(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return cat(static_cast<std::int64_t>(v));
  }
  return fixed(v, 4);
}

std::string class_json(const TrafficClass& c) {
  return cat("{\"name\":", json_string(c.name), ",\"route\":\"", route_name(c.route),
             "\",\"height\":", c.height, ",\"width\":", c.width, ",\"frames\":", c.frames,
             ",\"channels\":", c.channels, ",\"exec_frames\":", c.exec_frames,
             ",\"opt_level\":", c.opt_level, ",\"tenant\":", json_string(c.tenant),
             ",\"priority\":\"", priority_name(c.priority),
             "\",\"deadline_ms\":", num(c.deadline_ms), ",\"weight\":", num(c.weight), "}");
}

TrafficClass class_from_json(const JsonValue& v) {
  TrafficClass c;
  c.name = v.string("name");
  c.route = parse_route(v.string("route"));
  c.height = v.integer<int>("height");
  c.width = v.integer<int>("width");
  c.frames = v.integer<int>("frames");
  c.channels = v.integer<int>("channels");
  c.exec_frames = v.integer<int>("exec_frames");
  c.opt_level = v.integer<int>("opt_level");
  c.tenant = v.string("tenant");
  c.priority = parse_priority(v.string("priority"));
  c.deadline_ms = v.number("deadline_ms");
  c.weight = v.number("weight");
  c.validate();
  return c;
}

}  // namespace

void TrafficClass::validate() const {
  if (name.empty()) throw TrafficError("traffic class name must not be empty");
  if (weight <= 0) {
    throw TrafficError(cat("traffic class '", name, "' weight must be positive, got ", weight));
  }
  job().validate();  // geometry, frames, channels, tenant, deadline
}

JobSpec TrafficClass::job() const {
  JobSpec spec;
  spec.route = route;
  spec.config = apps::DownscalerConfig::tiny();
  spec.config.height = height;
  spec.config.width = width;
  spec.frames = frames;
  spec.channels = channels;
  spec.exec_frames = exec_frames;
  spec.opt_level = opt_level;
  spec.tenant = tenant;
  spec.priority = priority;
  spec.deadline_ms = deadline_ms;
  return spec;
}

void TrafficSpec::validate() const {
  if (duration_ms <= 0) {
    throw TrafficError(cat("traffic duration_ms must be positive, got ", duration_ms));
  }
  if (base_rate_hz <= 0) {
    throw TrafficError(cat("traffic base_rate_hz must be positive, got ", base_rate_hz));
  }
  if (diurnal_amplitude < 0 || diurnal_amplitude >= 1) {
    throw TrafficError(
        cat("diurnal_amplitude must be in [0, 1), got ", diurnal_amplitude));
  }
  if (diurnal_period_ms <= 0) {
    throw TrafficError(cat("diurnal_period_ms must be positive, got ", diurnal_period_ms));
  }
  if (burst_rate_hz < 0) {
    throw TrafficError(cat("burst_rate_hz must be >= 0, got ", burst_rate_hz));
  }
  if (burst_rate_hz > 0 && burst_size_mean < 1) {
    throw TrafficError(cat("burst_size_mean must be >= 1, got ", burst_size_mean));
  }
  if (burst_rate_hz > 0 && burst_width_ms <= 0) {
    throw TrafficError(cat("burst_width_ms must be positive, got ", burst_width_ms));
  }
  if (classes.empty()) throw TrafficError("traffic spec needs at least one class");
  for (const TrafficClass& c : classes) c.validate();
}

TrafficSpec TrafficSpec::ci_default() {
  TrafficSpec spec;
  spec.seed = 42;
  spec.duration_ms = 1000.0;
  spec.base_rate_hz = 60.0;
  spec.diurnal_amplitude = 0.6;
  spec.diurnal_period_ms = 400.0;
  spec.burst_rate_hz = 3.0;
  spec.burst_size_mean = 6.0;
  spec.burst_width_ms = 4.0;

  TrafficClass gold;
  gold.name = "gold-tiny";
  gold.route = Route::SacNongeneric;
  gold.height = 18;
  gold.width = 32;
  gold.frames = 4;
  gold.tenant = "gold";
  gold.priority = Priority::High;
  gold.deadline_ms = 400.0;
  gold.weight = 4.0;

  TrafficClass gold_wide;
  gold_wide.name = "gold-wide";
  gold_wide.route = Route::SacGeneric;
  gold_wide.height = 36;
  gold_wide.width = 64;
  gold_wide.frames = 3;
  gold_wide.tenant = "gold";
  gold_wide.priority = Priority::High;
  gold_wide.deadline_ms = 600.0;
  gold_wide.weight = 2.0;

  TrafficClass silver;
  silver.name = "silver-gaspard";
  silver.route = Route::Gaspard;
  silver.height = 18;
  silver.width = 32;
  silver.frames = 4;
  silver.opt_level = 2;
  silver.tenant = "silver";
  silver.priority = Priority::Normal;
  silver.deadline_ms = 900.0;
  silver.weight = 3.0;

  TrafficClass bronze;
  bronze.name = "bronze-batch";
  bronze.route = Route::SacNongeneric;
  bronze.height = 72;
  bronze.width = 128;
  bronze.frames = 2;
  bronze.tenant = "bronze";
  bronze.priority = Priority::Low;
  bronze.deadline_ms = 0.0;  // best effort
  bronze.weight = 2.0;

  spec.classes = {gold, gold_wide, silver, bronze};
  return spec;
}

TrafficSpec TrafficSpec::parse(const std::string& text) {
  TrafficSpec spec = ci_default();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string field = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw TrafficError(cat("traffic-spec field '", field, "' is not key=value"));
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    try {
      if (key == "seed") {
        spec.seed = static_cast<std::uint64_t>(std::stoull(value));
      } else if (key == "duration_ms") {
        spec.duration_ms = std::stod(value);
      } else if (key == "base_rate_hz") {
        spec.base_rate_hz = std::stod(value);
      } else if (key == "diurnal_amplitude") {
        spec.diurnal_amplitude = std::stod(value);
      } else if (key == "diurnal_period_ms") {
        spec.diurnal_period_ms = std::stod(value);
      } else if (key == "burst_rate_hz") {
        spec.burst_rate_hz = std::stod(value);
      } else if (key == "burst_size_mean") {
        spec.burst_size_mean = std::stod(value);
      } else if (key == "burst_width_ms") {
        spec.burst_width_ms = std::stod(value);
      } else {
        throw TrafficError(cat("unknown traffic-spec field '", key, "' in '", text, "'"));
      }
    } catch (const std::invalid_argument&) {
      throw TrafficError(cat("malformed value in traffic-spec field '", field, "'"));
    } catch (const std::out_of_range&) {
      throw TrafficError(cat("out-of-range value in traffic-spec field '", field, "'"));
    }
  }
  spec.validate();
  return spec;
}

TrafficTrace generate_trace(const TrafficSpec& spec) {
  spec.validate();
  std::mt19937_64 rng(spec.seed);
  double total_weight = 0;
  for (const TrafficClass& c : spec.classes) total_weight += c.weight;

  TrafficTrace trace;
  trace.spec = spec;

  const auto push = [&](double t_ms) {
    const TrafficClass& cls = spec.classes[draw_class(rng, spec.classes, total_weight)];
    TrafficArrival arrival;
    arrival.t_ms = t_ms;
    arrival.class_name = cls.name;
    arrival.spec = cls.job();
    trace.arrivals.push_back(std::move(arrival));
  };

  // Diurnal base load: nonhomogeneous Poisson via thinning. Candidates
  // arrive at the peak rate; each survives with probability
  // rate(t) / rate_max, which yields exactly the sinusoidal intensity.
  const double rate_max = spec.base_rate_hz / 1000.0 * (1.0 + spec.diurnal_amplitude);
  double t = 0;
  while (true) {
    t += exp_gap_ms(rng, rate_max);
    if (t >= spec.duration_ms) break;
    const double accept = u01(rng);
    if (accept * rate_max <= rate_at_ms(spec, t)) push(t);
  }

  // Burst overlay: bursts themselves are a homogeneous Poisson process;
  // each drops a geometric clump spread uniformly over its width.
  if (spec.burst_rate_hz > 0) {
    double bt = 0;
    while (true) {
      bt += exp_gap_ms(rng, spec.burst_rate_hz / 1000.0);
      if (bt >= spec.duration_ms) break;
      const std::int64_t size = geometric_size(rng, spec.burst_size_mean);
      for (std::int64_t i = 0; i < size; ++i) {
        const double offset = u01(rng) * spec.burst_width_ms;
        if (bt + offset < spec.duration_ms) push(bt + offset);
      }
    }
  }

  std::stable_sort(trace.arrivals.begin(), trace.arrivals.end(),
                   [](const TrafficArrival& a, const TrafficArrival& b) {
                     return a.t_ms < b.t_ms;
                   });
  return trace;
}

std::string TrafficTrace::to_json() const {
  std::string out = cat(
      "{\"spec\":{\"seed\":", spec.seed, ",\"duration_ms\":", num(spec.duration_ms),
      ",\"base_rate_hz\":", num(spec.base_rate_hz),
      ",\"diurnal_amplitude\":", num(spec.diurnal_amplitude),
      ",\"diurnal_period_ms\":", num(spec.diurnal_period_ms),
      ",\"burst_rate_hz\":", num(spec.burst_rate_hz),
      ",\"burst_size_mean\":", num(spec.burst_size_mean),
      ",\"burst_width_ms\":", num(spec.burst_width_ms), ",\"classes\":[");
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    if (i != 0) out += ",";
    out += class_json(spec.classes[i]);
  }
  out += "]},\"arrivals\":[";
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const TrafficArrival& a = arrivals[i];
    if (i != 0) out += ",";
    out += cat("\n{\"t_ms\":", fixed(a.t_ms, 4), ",\"class\":", json_string(a.class_name), "}");
  }
  out += "\n]}";
  return out;
}

namespace {

TrafficTrace trace_from_json(const JsonValue& root) {
  const JsonValue& spec_v = root.at("spec");
  TrafficTrace trace;
  trace.spec.seed = spec_v.integer<std::uint64_t>("seed");
  trace.spec.duration_ms = spec_v.number("duration_ms");
  trace.spec.base_rate_hz = spec_v.number("base_rate_hz");
  trace.spec.diurnal_amplitude = spec_v.number("diurnal_amplitude");
  trace.spec.diurnal_period_ms = spec_v.number("diurnal_period_ms");
  trace.spec.burst_rate_hz = spec_v.number("burst_rate_hz");
  trace.spec.burst_size_mean = spec_v.number("burst_size_mean");
  trace.spec.burst_width_ms = spec_v.number("burst_width_ms");
  const JsonValue& classes_v = spec_v.at("classes");
  if (classes_v.kind != JsonValue::Kind::Array) {
    throw JsonError("'classes' is not an array", classes_v.offset);
  }
  trace.spec.classes.clear();
  std::map<std::string, const TrafficClass*> by_name;
  for (const JsonValue& cv : classes_v.arr) {
    trace.spec.classes.push_back(class_from_json(cv));
  }
  trace.spec.validate();
  for (const TrafficClass& c : trace.spec.classes) {
    if (!by_name.emplace(c.name, &c).second) {
      throw TrafficError(cat("trace JSON: duplicate class name '", c.name, "'"));
    }
  }

  const JsonValue& arrivals_v = root.at("arrivals");
  if (arrivals_v.kind != JsonValue::Kind::Array) {
    throw JsonError("'arrivals' is not an array", arrivals_v.offset);
  }
  double prev_t = 0;
  for (const JsonValue& av : arrivals_v.arr) {
    TrafficArrival arrival;
    arrival.t_ms = av.number("t_ms");
    arrival.class_name = av.string("class");
    const auto it = by_name.find(arrival.class_name);
    if (it == by_name.end()) {
      throw TrafficError(cat("trace JSON: arrival references unknown class '",
                             arrival.class_name, "'"));
    }
    if (arrival.t_ms < prev_t) {
      throw TrafficError(cat("trace JSON: arrivals not sorted at t_ms ", arrival.t_ms));
    }
    prev_t = arrival.t_ms;
    arrival.spec = it->second->job();
    trace.arrivals.push_back(std::move(arrival));
  }
  return trace;
}

}  // namespace

TrafficTrace TrafficTrace::from_json(const std::string& text) {
  try {
    return trace_from_json(parse_json(text));
  } catch (const JsonError& e) {
    throw TrafficError(cat("trace JSON: ", e.what()));
  } catch (const TrafficError&) {
    throw;
  } catch (const ServeError& e) {  // an unknown route/priority or an invalid class
    throw TrafficError(cat("trace JSON: ", e.what()));
  }
}

ReplayStats replay_trace(ServeRuntime& runtime, const TrafficTrace& trace, double speed) {
  if (speed <= 0) throw TrafficError(cat("replay speed must be positive, got ", speed));

  // The same output fingerprint the CLI prints: fold route, frame count
  // and every output element per completed job, in submission order —
  // a function of the job mix alone.
  std::uint64_t checksum = 1469598103934665603ull;  // FNV-1a offset basis
  const auto fold = [&checksum](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      checksum ^= (v >> (8 * b)) & 0xffu;
      checksum *= 1099511628211ull;
    }
  };

  ReplayStats stats;
  std::vector<std::future<JobResult>> futures;
  futures.reserve(trace.arrivals.size());

  const auto start = std::chrono::steady_clock::now();
  for (const TrafficArrival& arrival : trace.arrivals) {
    const auto due =
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(arrival.t_ms * 1000.0 / speed));
    std::this_thread::sleep_until(due);
    ++stats.submitted;
    auto fut = runtime.try_submit(arrival.spec);
    if (fut) {
      futures.push_back(std::move(*fut));
    } else {
      // Backlog full (without shed_on_full the caller is the shedder) —
      // drop the arrival instead of distorting the schedule by blocking.
      ++stats.shed;
    }
  }

  for (auto& fut : futures) {
    try {
      const JobResult r = fut.get();
      ++stats.completed;
      fold(static_cast<std::uint64_t>(r.route));
      fold(static_cast<std::uint64_t>(r.frames));
      fold(static_cast<std::uint64_t>(r.last_output.elements()));
      for (std::int64_t i = 0; i < r.last_output.elements(); ++i) {
        fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.last_output[i])));
      }
    } catch (const ShedError&) {
      ++stats.shed;
    } catch (const std::exception&) {
      ++stats.failed;
    }
  }
  stats.checksum = checksum;
  stats.elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

}  // namespace saclo::serve
