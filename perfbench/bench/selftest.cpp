// Self-tests of the harness arithmetic, on a tiny configuration: the
// tail-percentile rule, open-loop latency from the due time, and the
// accounting identity behind fail_ratio on a real, deliberately
// overloaded replay. Run with `perfbench --self-test`; takes seconds.

#include <cmath>
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

void test_tail_rule() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  Tail t = tail_percentile(v);
  check(t.value == 990 && t.beyond == 10 && near(t.percentile, 99.0) && t.samples == 1000,
        "tail of 1..1000 is p99 = 990 with 10 samples beyond");
  v.resize(200);  // 1000 .. 801
  t = tail_percentile(v);
  check(t.value == 990 && t.beyond == 10 && near(t.percentile, 95.0),
        "tail of 200 samples is p95 with 10 beyond");
  t = tail_percentile({5, 1, 3});
  check(t.value == 3 && near(t.percentile, 50.0), "tail of <= 20 samples falls back to the median");
  v.resize(21);  // 1000 .. 980: the tail is the 11th largest, just above the median
  t = tail_percentile(v);
  check(t.value == 990 && t.beyond == 10, "tail of 21 samples has 10 beyond it");
  check(median({4, 1, 3, 2}) == 2.5, "median of an even sample averages the middle pair");
  check(near(geomean({2, 8}), 4.0), "geomean of 2 and 8 is 4");
}

void test_open_loop_latency() {
  const Clock::time_point due = Clock::now();
  const Clock::time_point submitted = due + std::chrono::milliseconds(3);
  check(near(open_loop_latency_ms(due, submitted, 2000.0), 5.0),
        "open-loop latency = generator lag 3 ms + runtime latency 2 ms");
  check(near(open_loop_latency_ms(due, due, 1500.0), 1.5), "no lag: latency is the runtime's");
}

void test_sequences_and_spans() {
  const std::vector<int> a = balanced_sequence(7, 4, 40);
  bool balanced = true;
  for (int b = 0; b < 10; ++b) {
    std::vector<int> seen(4, 0);
    for (int i = 0; i < 4; ++i) ++seen[static_cast<std::size_t>(a[b * 4 + i])];
    for (int s : seen) balanced = balanced && s == 1;
  }
  check(balanced, "every block of the seeded sequence is a permutation");
  check(a == balanced_sequence(7, 4, 40) && a != balanced_sequence(8, 4, 40),
        "same seed -> same sequence, other seed -> other sequence");

  const Clock::time_point o = Clock::now();
  const auto at = [o](int ms) { return o + std::chrono::milliseconds(ms); };
  SpanRecorder rec(o);
  const std::uint64_t root = rec.reserve();
  rec.add(0, "child", root, 1, at(1), at(3), 0);
  rec.add(0, "child", root, 1, at(2), at(5), 0);
  rec.add(0, "child", root, 1, at(8), at(12), 0);  // clipped to the parent
  rec.add(root, "parent", 0, 1, at(0), at(10), 0);
  double self = -1;
  for (const auto& row : rec.self_times()) {
    if (row.name == "parent") self = row.self_ms;
  }
  check(near(self, 4.0), "self time = 10 ms - union of children [1,5] and [8,10]");
}

void test_trace_rescale() {
  Workload w = make_workload("replay_slo");
  const auto t1 = make_trace(w, 3, 2.0);
  const auto t2 = make_trace(w, 3, 2.0);
  bool same = t1.arrivals.size() == t2.arrivals.size();
  for (std::size_t i = 0; same && i < t1.arrivals.size(); ++i) {
    same = t1.arrivals[i].t_ms == t2.arrivals[i].t_ms &&
           t1.arrivals[i].class_name == t2.arrivals[i].class_name;
  }
  check(same, "the trace is a function of the seed");
  const auto expected = static_cast<std::size_t>(std::llround(w.offered_rate_hz * 2.0));
  check(t1.arrivals.size() == expected && t1.arrivals.back().t_ms < 2000.0,
        "the trace offers exactly offered_rate_hz * seconds arrivals within the window");
}

void test_accounting_identity() {
  // One device, a tight per-tenant rate limit and a small queue: the
  // replay must shed, and every submission must still end exactly one way.
  Workload w = make_workload("replay_slo");
  w.options.devices = 1;
  w.options.tenant_rate_limit = 40.0;
  w.options.tenant_rate_burst = 2.0;
  w.offered_rate_hz = 400.0;
  const std::vector<Reference> refs = compute_references(w);
  Fleet fleet = set_up(w);
  const LoopResult loop = run_open_loop(w, *fleet.runtime, refs, make_trace(w, 11, 0.5), nullptr);
  const auto snap = fleet.runtime->metrics().snapshot();
  check(loop.acct.identity_holds(), "completed + failed + shed == submitted");
  check(loop.acct.shed > 0 && loop.acct.completed > 0, "the overloaded replay both sheds and completes");
  check(loop.acct.mismatches == 0, "completed jobs match their references");
  // The runtime counts the warm-up jobs too (one per kind).
  check(snap.jobs_completed == loop.acct.completed + static_cast<std::int64_t>(w.kinds.size()) &&
            snap.jobs_shed == loop.acct.shed,
        "the harness counts agree with FleetMetrics");
  const double expected = static_cast<double>(loop.acct.shed + loop.acct.failed) /
                          static_cast<double>(loop.acct.submitted);
  check(near(loop.acct.fail_ratio(), expected), "fail_ratio = (failed + shed + mismatches) / submitted");
  bool from_due = !loop.jobs.empty();
  for (const JobRecord& j : loop.jobs) {
    from_due = from_due && near(j.latency_ms, j.lag_ms + j.runtime_latency_us / 1000.0);
  }
  check(from_due, "every open-loop latency is measured from the due time");
}

}  // namespace

int run_self_tests() {
  test_tail_rule();
  test_open_loop_latency();
  test_sequences_and_spans();
  test_trace_rescale();
  test_accounting_identity();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
