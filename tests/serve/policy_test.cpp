#include "serve/policy.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/downscaler/pipelines.hpp"
#include "gpu/sim_gpu.hpp"
#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "support/fault_fixtures.hpp"
#include "support/mini_json.hpp"

namespace saclo::serve {
namespace {

using saclo::testsupport::FaultPlanBuilder;
using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

std::vector<Json> parse_jsonl(const std::string& text) {
  std::vector<Json> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) out.push_back(parse_json(line));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Name parsing

TEST(PolicyTest, PriorityNamesRoundTrip) {
  for (Priority p : {Priority::High, Priority::Normal, Priority::Low}) {
    EXPECT_EQ(parse_priority(priority_name(p)), p);
  }
}

TEST(PolicyTest, ParsePriorityRejectsUnknownNames) {
  EXPECT_THROW(parse_priority("urgent"), ServeError);
  EXPECT_THROW(parse_priority(""), ServeError);
  EXPECT_THROW(parse_priority("High"), ServeError) << "names are case-sensitive";
}

TEST(PolicyTest, SchedPolicyNamesRoundTrip) {
  for (SchedPolicy p : {SchedPolicy::Fifo, SchedPolicy::Priority, SchedPolicy::Edf}) {
    EXPECT_EQ(parse_sched_policy(sched_policy_name(p)), p);
  }
}

TEST(PolicyTest, ParseSchedPolicyRejectsUnknownNames) {
  EXPECT_THROW(parse_sched_policy("lifo"), ServeError);
  EXPECT_THROW(parse_sched_policy(""), ServeError);
  EXPECT_THROW(parse_sched_policy("EDF"), ServeError) << "names are case-sensitive";
}

// ---------------------------------------------------------------------------
// Comparator semantics

SchedKey key(Priority priority, double deadline_us, std::uint64_t seq) {
  SchedKey k;
  k.priority = priority;
  k.deadline_us = deadline_us;
  k.seq = seq;
  return k;
}

TEST(PolicyTest, FifoOrdersBySubmissionAlone) {
  // Fifo is the pre-SLO behavior: class and deadline are invisible.
  const SchedKey urgent = key(Priority::High, 100.0, 2);
  const SchedKey earlier = key(Priority::Low, 0.0, 1);
  EXPECT_TRUE(schedules_before(SchedPolicy::Fifo, earlier, urgent));
  EXPECT_FALSE(schedules_before(SchedPolicy::Fifo, urgent, earlier));
}

TEST(PolicyTest, PriorityOrdersByClassThenSubmission) {
  const SchedKey high_late = key(Priority::High, 0.0, 9);
  const SchedKey normal_early = key(Priority::Normal, 0.0, 1);
  const SchedKey low_early = key(Priority::Low, 0.0, 2);
  EXPECT_TRUE(schedules_before(SchedPolicy::Priority, high_late, normal_early));
  EXPECT_TRUE(schedules_before(SchedPolicy::Priority, normal_early, low_early));
  // Within a class, submission order wins — deadlines are ignored.
  const SchedKey normal_deadline = key(Priority::Normal, 50.0, 3);
  EXPECT_TRUE(schedules_before(SchedPolicy::Priority, normal_early, normal_deadline));
}

TEST(PolicyTest, EdfOrdersWithinClassByDeadline) {
  // Class still dominates: a High job without a deadline beats a Low
  // job with the tightest deadline in the queue.
  const SchedKey high_no_dl = key(Priority::High, 0.0, 9);
  const SchedKey low_tight = key(Priority::Low, 1.0, 1);
  EXPECT_TRUE(schedules_before(SchedPolicy::Edf, high_no_dl, low_tight));

  // Within a class: earlier absolute deadline first.
  const SchedKey soon = key(Priority::Normal, 100.0, 5);
  const SchedKey later = key(Priority::Normal, 200.0, 1);
  EXPECT_TRUE(schedules_before(SchedPolicy::Edf, soon, later));

  // A deadline-carrying job beats a best-effort (deadline 0) peer.
  const SchedKey best_effort = key(Priority::Normal, 0.0, 1);
  EXPECT_TRUE(schedules_before(SchedPolicy::Edf, later, best_effort));

  // Equal deadlines (including none at all) fall back to submission.
  const SchedKey tie_a = key(Priority::Normal, 100.0, 1);
  const SchedKey tie_b = key(Priority::Normal, 100.0, 2);
  EXPECT_TRUE(schedules_before(SchedPolicy::Edf, tie_a, tie_b));
  EXPECT_FALSE(schedules_before(SchedPolicy::Edf, tie_b, tie_a));
}

TEST(PolicyTest, ComparatorIsIrreflexiveUnderEveryPolicy) {
  // schedules_before must be a strict ordering or the best-ready scan
  // (and the steal victim selection) would loop on equal keys.
  const SchedKey k1 = key(Priority::Normal, 100.0, 4);
  for (SchedPolicy p : {SchedPolicy::Fifo, SchedPolicy::Priority, SchedPolicy::Edf}) {
    EXPECT_FALSE(schedules_before(p, k1, k1)) << sched_policy_name(p);
  }
}

// ---------------------------------------------------------------------------
// Admission control (injected clock: no sleeps, no flakiness)

using Clock = std::chrono::steady_clock;

TEST(AdmissionTest, TokenBucketStartsFullAndRefillsAtTheSustainedRate) {
  const Clock::time_point t0 = Clock::now();
  TokenBucket bucket(/*rate_per_s=*/1.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_FALSE(bucket.try_take(t0)) << "burst exhausted";
  // Half a second accrues half a token — still shed.
  EXPECT_FALSE(bucket.try_take(t0 + std::chrono::milliseconds(500)));
  // Two seconds after exhaustion at 1 token/s the bucket is full again
  // (burst 2): exactly two takes pass.
  EXPECT_TRUE(bucket.try_take(t0 + std::chrono::milliseconds(2000)));
  EXPECT_TRUE(bucket.try_take(t0 + std::chrono::milliseconds(2000)));
  EXPECT_FALSE(bucket.try_take(t0 + std::chrono::milliseconds(2000)));
}

TEST(AdmissionTest, TokenBucketRefillCapsAtBurst) {
  const Clock::time_point t0 = Clock::now();
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/3.0);
  EXPECT_TRUE(bucket.try_take(t0));
  // A long idle stretch accrues far more than burst tokens; only burst
  // of them survive.
  const Clock::time_point later = t0 + std::chrono::seconds(100);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(later)) << "take " << i;
  EXPECT_FALSE(bucket.try_take(later));
}

TEST(AdmissionTest, ControllerIsolatesTenants) {
  AdmissionController admission(/*rate_per_s=*/1.0, /*burst=*/1.0);
  const Clock::time_point t0 = Clock::now();
  EXPECT_TRUE(admission.admit("alpha", t0));
  EXPECT_FALSE(admission.admit("alpha", t0)) << "alpha exhausted its own bucket";
  EXPECT_TRUE(admission.admit("beta", t0)) << "beta's bucket is untouched";
}

TEST(AdmissionTest, ShedReasonNamesAreStable) {
  EXPECT_STREQ(shed_reason_name(ShedReason::RateLimited), "rate_limited");
  EXPECT_STREQ(shed_reason_name(ShedReason::QueueFull), "queue_full");
}

// ---------------------------------------------------------------------------
// Option and spec validation

TEST(SchedulerOptionsTest, RejectsNegativeRateLimit) {
  ServeRuntime::Options opts;
  opts.tenant_rate_limit = -1.0;
  EXPECT_THROW(ServeRuntime{opts}, ServeError);
}

TEST(SchedulerOptionsTest, RejectsSubUnitBurstWhenLimiting) {
  ServeRuntime::Options opts;
  opts.tenant_rate_limit = 10.0;
  opts.tenant_rate_burst = 0.5;
  EXPECT_THROW(ServeRuntime{opts}, ServeError);
  // Without limiting the burst value is inert and may stay default.
  opts.tenant_rate_limit = 0.0;
  ServeRuntime ok(opts);
  ok.shutdown();
}

TEST(SchedulerOptionsTest, RejectsZeroCapacityQueue) {
  ServeRuntime::Options opts;
  opts.queue_capacity = 0;
  EXPECT_THROW(ServeRuntime{opts}, ServeError);
}

TEST(SchedulerOptionsTest, JobSpecRejectsNegativeDeadlineAndEmptyTenant) {
  JobSpec bad_deadline;
  bad_deadline.deadline_ms = -5.0;
  EXPECT_THROW(bad_deadline.validate(), ServeError);
  JobSpec bad_tenant;
  bad_tenant.tenant.clear();
  EXPECT_THROW(bad_tenant.validate(), ServeError);
}

TEST(SchedulerOptionsTest, SubmitRejectsDeadlinesInsideOneBatchWindow) {
  // With batching on, a job may legally wait a full batch window before
  // dispatch — a deadline below that window could expire while the job
  // coalesces, so the runtime refuses it up front.
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.batch_max = 2;
  opts.batch_wait_ms = 5.0;
  ServeRuntime runtime(opts);
  JobSpec spec;
  spec.frames = 2;
  spec.exec_frames = 1;
  spec.deadline_ms = 2.0;  // inside the 5ms batch window
  EXPECT_THROW(runtime.submit(spec), ServeError);
  spec.deadline_ms = 50.0;  // clears the window: accepted
  runtime.submit(spec).get();
}

// ---------------------------------------------------------------------------
// Preemption points

TEST(PreemptionGateTest, GateStopsAtTheNextFrameBoundaryExactly) {
  // The bounded-inversion guarantee at its source: even a gate that
  // demands preemption before every frame cedes the device after
  // exactly one frame per chunk (the loop always makes one frame of
  // progress, so a preempt storm cannot livelock a job), and the
  // chunked run is bit-exact against the uninterrupted one.
  const apps::DownscalerConfig cfg = apps::DownscalerConfig::tiny();
  const apps::SacDownscaler::Options opts;
  apps::SacDownscaler downscaler(cfg, opts);
  const int kFrames = 4;

  gpu::VirtualGpu whole_gpu(opts.device);
  const auto whole = downscaler.run_cuda_chain_on(whole_gpu, kFrames, 1, kFrames);
  ASSERT_EQ(whole.next_frame, kFrames);

  gpu::VirtualGpu chunked_gpu(opts.device);
  const apps::FrameGate never = [](int) { return false; };
  apps::SacDownscaler::CudaResult last;
  int frame = 0;
  int chunks = 0;
  while (frame < kFrames) {
    auto r = downscaler.run_cuda_chain_on(chunked_gpu, kFrames, 1, kFrames, {}, true, frame,
                                          never);
    EXPECT_EQ(r.next_frame, frame + 1) << "exactly one frame per preempted chunk";
    frame = r.next_frame;
    last = std::move(r);
    ++chunks;
  }
  EXPECT_EQ(chunks, kFrames);
  EXPECT_EQ(last.last_output, whole.last_output);
}

TEST(SchedulerPreemptionTest, HighPriorityArrivalPreemptsARunningLowJob) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.policy = SchedPolicy::Priority;
  opts.event_log_capacity = 256;
  ServeRuntime runtime(opts);

  JobSpec low;
  low.priority = Priority::Low;
  low.frames = 64;  // long enough that the high job arrives mid-run
  auto low_future = runtime.submit(low);
  // Wait until the low job left the queue — it is now inside its frame
  // loop on the only device.
  while (runtime.queued_jobs() > 0) std::this_thread::sleep_for(std::chrono::microseconds(50));

  JobSpec high;
  high.priority = Priority::High;
  high.frames = 2;
  high.exec_frames = 1;
  auto high_future = runtime.submit(high);

  const JobResult high_result = high_future.get();
  const JobResult low_result = low_future.get();
  runtime.drain();

  EXPECT_GE(low_result.preemptions, 1) << "the arrival must displace the running job";
  EXPECT_EQ(high_result.preemptions, 0);

  // Displacement never costs correctness: the resumed job keeps its
  // completed frames and its output matches the single-device run.
  const JobResult reference = reference_run(low, opts.device);
  EXPECT_EQ(low_result.last_output, reference.last_output);

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_GE(s.preemptions, 1);

  // The high job finished before the job submitted ahead of it — the
  // whole point of preempting — and the event log says why.
  std::uint64_t first_completed = 0;
  for (const Json& line : parse_jsonl(runtime.events_jsonl())) {
    if (line.at("event").string == "job_completed") {
      first_completed = static_cast<std::uint64_t>(line.at("job").number);
      break;
    }
  }
  EXPECT_EQ(first_completed, high_result.id);
  EXPECT_NE(runtime.events_jsonl().find("\"job_preempted\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Work stealing

TEST(SchedulerStealTest, StealingDefaultsOffToKeepPlacementDeterministic) {
  // Several placement tests (and the batching heuristics) rely on jobs
  // running where the cost model put them; stealing is strictly opt-in.
  EXPECT_FALSE(ServeRuntime::Options{}.work_stealing);
}

TEST(SchedulerStealTest, IdleDispatcherStealsABackedOffRetry) {
  // The steal scenario on real threads: device 1 faults its very first
  // kernel (one-shot), so its job fails over to device 0 — busy with a
  // long job — behind a retry backoff, where idle device 1 may steal it
  // back. Whether the thief gets a CPU before device 0 finishes `big`
  // is a race, so this test keeps only what holds whichever thread
  // wins; SchedCoreTest.IdleDeviceStealsABackedOffRetry drives the
  // steal itself step by step under virtual time.
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.work_stealing = true;
  opts.event_log_capacity = 256;
  opts.fault_plan = FaultPlanBuilder().fail_after_kernels(/*device=*/1, /*kernels=*/0).build();
  opts.degraded_cooldown_ms = -1.0;
  opts.retry_backoff_base_ms = 0.05;
  opts.retry_backoff_cap_ms = 0.5;
  ServeRuntime runtime(opts);

  JobSpec big;
  big.frames = 64;
  auto big_future = runtime.submit(big);  // least-loaded tie-break: device 0

  JobSpec small;
  small.frames = 2;
  small.exec_frames = 1;
  auto small_future = runtime.submit(small);  // placed on device 1, faults instantly

  big_future.get();
  const JobResult small_result = small_future.get();
  runtime.drain();

  EXPECT_EQ(small_result.attempts, 1);
  const JobResult reference = reference_run(small, opts.device);
  EXPECT_EQ(small_result.last_output, reference.last_output);
  EXPECT_EQ(runtime.metrics().snapshot().jobs_completed, 2);
  testsupport::expect_zero_allocator_leaks(runtime);
}

}  // namespace
}  // namespace saclo::serve
