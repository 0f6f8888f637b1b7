#include "harness.hpp"

#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_percentile(std::vector<double> values, std::int64_t min_beyond) {
  Tail t;
  t.samples = static_cast<std::int64_t>(values.size());
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::int64_t n = t.samples;
  if (n <= 2 * min_beyond) {
    // Too few samples for a tail above the median.
    t.value = median(values);
    t.percentile = 50;
    t.beyond = n / 2;
    return t;
  }
  // Zero-based rank r has n - 1 - r samples after it; the highest rank
  // with min_beyond after it is n - 1 - min_beyond.
  const std::int64_t rank = n - 1 - min_beyond;
  t.value = values[static_cast<std::size_t>(rank)];
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  t.beyond = min_beyond;
  return t;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (v <= 0) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double open_loop_latency_ms(Clock::time_point due, Clock::time_point submitted,
                            double runtime_latency_us) {
  return ms_between(due, submitted) + runtime_latency_us / 1000.0;
}

double Accounting::fail_ratio() const {
  if (submitted <= 0) return 0;
  return static_cast<double>(failed + shed + mismatches) / static_cast<double>(submitted);
}

std::vector<int> balanced_sequence(std::uint64_t seed, int kinds, int length) {
  std::mt19937_64 rng(seed);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(length));
  std::vector<int> block(static_cast<std::size_t>(kinds));
  while (static_cast<int>(out.size()) < length) {
    for (int i = 0; i < kinds; ++i) block[static_cast<std::size_t>(i)] = i;
    // Fisher-Yates from raw draws.
    for (int i = kinds - 1; i > 0; --i) {
      const int j = static_cast<int>(u01(rng) * (i + 1));
      std::swap(block[static_cast<std::size_t>(i)], block[static_cast<std::size_t>(j)]);
    }
    for (int k : block) {
      if (static_cast<int>(out.size()) < length) out.push_back(k);
    }
  }
  return out;
}

double machine_probe_ms() {
  std::vector<std::uint32_t> table(1 << 16);
  std::uint64_t x = 88172645463325252ull;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 0xffff] += static_cast<std::uint32_t>(x >> 32);
  }
  const double ms = ms_between(start, Clock::now());
  volatile std::uint32_t sink = table[x & 0xffff];
  (void)sink;
  return ms;
}

std::uint64_t fnv1a(const std::int64_t* data, std::int64_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::uint64_t>(data[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t SpanRecorder::reserve() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

std::uint64_t SpanRecorder::add(std::uint64_t id, const std::string& name, std::uint64_t parent,
                                std::uint64_t job, Clock::time_point start, Clock::time_point end,
                                int tid) {
  Span s;
  s.parent = parent;
  s.job = job;
  s.name = name;
  s.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  s.end_us = std::chrono::duration<double, std::micro>(end - origin_).count();
  s.tid = tid;
  std::lock_guard lock(mutex_);
  s.id = id != 0 ? id : next_id_++;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<SpanRecorder::SelfRow> SpanRecorder::self_times() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, SelfRow> rows;
  for (const Span& s : all) {
    double covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      for (auto& [a, b] : iv) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
      }
      std::sort(iv.begin(), iv.end());
      double cur_a = 0;
      double cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    SelfRow& r = rows[s.name];
    r.name = s.name;
    ++r.count;
    r.total_ms += (s.end_us - s.start_us) / 1000.0;
    r.self_ms += (s.end_us - s.start_us - covered) / 1000.0;
  }
  std::vector<SelfRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SelfRow& a, const SelfRow& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::string SpanRecorder::chrome_trace_json() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"span\":%llu,\"parent\":%llu,\"job\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                  s.start_us, s.end_us - s.start_us, s.tid, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.job));
    out += buf;
  }
  return out + "\n]}\n";
}

}  // namespace perfbench
