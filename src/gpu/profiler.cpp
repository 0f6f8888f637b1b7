#include "gpu/profiler.hpp"

#include <algorithm>
#include <cmath>

#include "core/fmt.hpp"

namespace saclo::gpu {

const char* op_kind_category(OpKind kind) {
  switch (kind) {
    case OpKind::Kernel: return "kernel";
    case OpKind::MemcpyHtoD: return "memcpy_h2d";
    case OpKind::MemcpyDtoH: return "memcpy_d2h";
    case OpKind::Host: return "host";
  }
  return "host";
}

std::vector<std::pair<double, double>> merge_spans(std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& [begin, end] : spans) {
    if (!merged.empty() && begin <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, end);
    } else {
      merged.emplace_back(begin, end);
    }
  }
  return merged;
}

std::uint32_t Profiler::row_of(std::string_view name, OpKind kind) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto row = static_cast<std::uint32_t>(rows_.size());
  index_.emplace(std::string(name), row);
  // A live snapshot copies the row names: the append takes its lock.
  std::lock_guard<std::mutex> lock(intervals_mutex_);
  rows_.push_back(Row{std::string(name), kind, 0, 0.0});
  return row;
}

void Profiler::record(std::string_view name, OpKind kind, std::int64_t calls, double us) {
  Row& row = rows_[row_of(name, kind)];
  row.calls += calls;
  row.total_us += us;
}

void Profiler::record_interval(std::string_view name, OpKind kind, StreamId stream,
                               double start_us, double end_us) {
  const std::uint32_t row = row_of(name, kind);
  rows_[row].calls += 1;
  rows_[row].total_us += end_us - start_us;
  std::lock_guard<std::mutex> lock(intervals_mutex_);
  intervals_.push_back(Interval{row, kind, stream, start_us, end_us, trace_id_, attempt_, batch_});
}

Profiler::Snapshot Profiler::snapshot() const {
  std::lock_guard<std::mutex> lock(intervals_mutex_);
  Snapshot s;
  s.names.reserve(rows_.size());
  for (const Row& r : rows_) s.names.push_back(r.name);
  s.intervals = intervals_;
  return s;
}

double Profiler::total_us() const {
  double t = 0.0;
  for (const Row& r : rows_) t += r.total_us;
  return t;
}

double Profiler::total_us(OpKind kind) const {
  double t = 0.0;
  for (const Row& r : rows_) {
    if (r.kind == kind) t += r.total_us;
  }
  return t;
}

double Profiler::us_for(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : rows_[it->second].total_us;
}

double Profiler::makespan_us() const {
  double m = 0.0;
  for (const Interval& i : intervals_) m = std::max(m, i.end_us);
  return m;
}

double Profiler::stream_busy_us(StreamId stream) const {
  double t = 0.0;
  for (const Interval& i : intervals_) {
    if (i.stream == stream) t += i.duration_us();
  }
  return t;
}

Profiler::OverlapStats Profiler::overlap_stats() const {
  OverlapStats s;
  s.makespan_us = makespan_us();
  // Merge the kernel intervals into a disjoint union, then intersect
  // every transfer interval with it. Ops on the same stream never
  // overlap, so no same-stream exclusion is needed.
  std::vector<std::pair<double, double>> kernels;
  for (const Interval& i : intervals_) {
    s.serialized_us += i.duration_us();
    if (i.kind == OpKind::MemcpyHtoD || i.kind == OpKind::MemcpyDtoH) {
      s.transfer_us += i.duration_us();
    } else if (i.kind == OpKind::Kernel) {
      kernels.emplace_back(i.start_us, i.end_us);
    }
  }
  const std::vector<std::pair<double, double>> merged = merge_spans(std::move(kernels));
  for (const Interval& i : intervals_) {
    if (i.kind != OpKind::MemcpyHtoD && i.kind != OpKind::MemcpyDtoH) continue;
    for (const auto& [b, e] : merged) {
      if (e <= i.start_us) continue;
      if (b >= i.end_us) break;
      s.hidden_transfer_us += std::min(e, i.end_us) - std::max(b, i.start_us);
    }
  }
  return s;
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(intervals_mutex_);
  rows_.clear();
  index_.clear();
  intervals_.clear();
}

std::string Profiler::table() const {
  const double total = total_us();
  std::string out;
  out += pad_right("Operation", 28) + pad_left("#calls", 8) + pad_left("GPU time(usec)", 16) +
         pad_left("GPU time (%)", 14) + "\n";
  out += std::string(66, '-') + "\n";
  for (const Row& r : rows_) {
    out += pad_right(r.name, 28) + pad_left(std::to_string(r.calls), 8) +
           pad_left(std::to_string(static_cast<std::int64_t>(std::llround(r.total_us))), 16) +
           pad_left(fixed(total > 0 ? 100.0 * r.total_us / total : 0.0, 2), 14) + "\n";
  }
  out += std::string(66, '-') + "\n";
  out += pad_right("Total", 28) + pad_left("-", 8) + pad_left(fixed(total / 1e6, 2) + "sec", 16) +
         pad_left("100.00", 14) + "\n";
  return out;
}

std::string Profiler::timeline() const {
  std::string out;
  out += pad_right("Stream", 10) + pad_left("#ops", 8) + pad_left("busy(usec)", 14) +
         pad_left("first(usec)", 14) + pad_left("last(usec)", 14) + "\n";
  out += std::string(60, '-') + "\n";
  // One pass over the intervals, one accumulator per stream.
  struct StreamStats {
    std::int64_t ops = 0;
    double busy = 0.0;
    double first = 0.0;
    double last = 0.0;
  };
  std::map<StreamId, StreamStats> streams;
  for (const Interval& i : intervals_) {
    auto [it, fresh] = streams.try_emplace(i.stream);
    StreamStats& st = it->second;
    ++st.ops;
    st.busy += i.duration_us();
    if (fresh || i.start_us < st.first) st.first = i.start_us;
    st.last = std::max(st.last, i.end_us);
  }
  for (const auto& [s, st] : streams) {
    out += pad_right(cat("stream ", s), 10) + pad_left(std::to_string(st.ops), 8) +
           pad_left(fixed(st.busy, 0), 14) + pad_left(fixed(st.first, 0), 14) +
           pad_left(fixed(st.last, 0), 14) + "\n";
  }
  out += std::string(60, '-') + "\n";
  const OverlapStats st = overlap_stats();
  out += cat("serialized ", fixed(st.serialized_us / 1e6, 3), "sec   makespan ",
             fixed(st.makespan_us / 1e6, 3), "sec   saved ", fixed(st.saved_us() / 1e6, 3),
             "sec\n");
  out += cat("transfers ", fixed(st.transfer_us / 1e6, 3), "sec, hidden behind kernels ",
             fixed(st.hidden_transfer_us / 1e6, 3), "sec (",
             fixed(100.0 * st.hidden_fraction(), 1), "%)\n");
  return out;
}

}  // namespace saclo::gpu
