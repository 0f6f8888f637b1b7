#include "serve/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "support/mini_json.hpp"
#include "serve/scheduler.hpp"

namespace saclo::serve {
namespace {

using testsupport::Json;
using testsupport::parse_json;

// ---------------------------------------------------------------------------
// Generator

TEST(TrafficGeneratorTest, SameSpecSameTrace) {
  const TrafficSpec spec = TrafficSpec::ci_default();
  const TrafficTrace a = generate_trace(spec);
  const TrafficTrace b = generate_trace(spec);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.arrivals[i].t_ms, b.arrivals[i].t_ms);
    EXPECT_EQ(a.arrivals[i].class_name, b.arrivals[i].class_name);
  }
  // Byte-for-byte too: the committed-trace workflow depends on it.
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(TrafficGeneratorTest, DifferentSeedsDiffer) {
  TrafficSpec spec = TrafficSpec::ci_default();
  const std::string a = generate_trace(spec).to_json();
  spec.seed = 43;
  EXPECT_NE(generate_trace(spec).to_json(), a);
}

TEST(TrafficGeneratorTest, ArrivalsAreSortedInWindowAndRateScales) {
  TrafficSpec spec = TrafficSpec::ci_default();
  spec.duration_ms = 2000;
  const TrafficTrace trace = generate_trace(spec);
  ASSERT_FALSE(trace.arrivals.empty());
  double prev = 0;
  std::set<std::string> names;
  for (const TrafficArrival& a : trace.arrivals) {
    EXPECT_GE(a.t_ms, prev);
    EXPECT_LT(a.t_ms, spec.duration_ms);
    prev = a.t_ms;
    names.insert(a.class_name);
    // Each arrival's JobSpec is fully materialised and valid.
    EXPECT_NO_THROW(a.spec.validate());
  }
  // The weighted mix actually samples every class over 2 seconds.
  EXPECT_EQ(names.size(), spec.classes.size());

  // Doubling the base rate roughly doubles the arrival count (the
  // burst overlay is unchanged, so "roughly").
  TrafficSpec doubled = spec;
  doubled.base_rate_hz *= 2;
  const std::size_t n1 = trace.arrivals.size();
  const std::size_t n2 = generate_trace(doubled).arrivals.size();
  EXPECT_GT(static_cast<double>(n2), 1.4 * static_cast<double>(n1));
}

TEST(TrafficGeneratorTest, BurstsAddClumpedArrivals) {
  TrafficSpec calm = TrafficSpec::ci_default();
  calm.burst_rate_hz = 0;
  TrafficSpec bursty = calm;
  bursty.burst_rate_hz = 10;
  const std::size_t calm_n = generate_trace(calm).arrivals.size();
  const std::size_t bursty_n = generate_trace(bursty).arrivals.size();
  EXPECT_GT(bursty_n, calm_n);
}

TEST(TrafficSpecTest, ValidateRejectsBadShapes) {
  TrafficSpec spec = TrafficSpec::ci_default();
  spec.duration_ms = 0;
  EXPECT_THROW(spec.validate(), TrafficError);

  spec = TrafficSpec::ci_default();
  spec.diurnal_amplitude = 1.0;  // rate would touch zero-crossing edge
  EXPECT_THROW(spec.validate(), TrafficError);

  spec = TrafficSpec::ci_default();
  spec.classes.clear();
  EXPECT_THROW(spec.validate(), TrafficError);

  spec = TrafficSpec::ci_default();
  spec.classes[0].weight = 0;
  EXPECT_THROW(spec.validate(), TrafficError);

  // Geometry constraints surface through the class validator (via the
  // downscaler config, hence the base error type): heights must be
  // multiples of the vertical paving (9), widths of the horizontal (8).
  spec = TrafficSpec::ci_default();
  spec.classes[0].height = 20;
  EXPECT_THROW(spec.validate(), Error);
}

// ---------------------------------------------------------------------------
// CLI spec grammar

TEST(TrafficSpecTest, ParseOverridesOnlyNamedKeys) {
  const TrafficSpec spec = TrafficSpec::parse("seed=7,base_rate_hz=80");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.base_rate_hz, 80.0);
  const TrafficSpec def = TrafficSpec::ci_default();
  EXPECT_DOUBLE_EQ(spec.duration_ms, def.duration_ms);
  EXPECT_EQ(spec.classes.size(), def.classes.size());
}

TEST(TrafficSpecTest, ParseEmptyIsCiDefault) {
  EXPECT_EQ(generate_trace(TrafficSpec::parse("")).to_json(),
            generate_trace(TrafficSpec::ci_default()).to_json());
}

TEST(TrafficSpecTest, ParseRejectsMalformedFields) {
  EXPECT_THROW(TrafficSpec::parse("seed"), TrafficError);
  EXPECT_THROW(TrafficSpec::parse("bogus=1"), TrafficError);
  EXPECT_THROW(TrafficSpec::parse("seed=notanumber"), TrafficError);
}

// ---------------------------------------------------------------------------
// JSON round-trip

TEST(TrafficTraceTest, JsonRoundTripsExactly) {
  const TrafficTrace trace = generate_trace(TrafficSpec::ci_default());
  const std::string json = trace.to_json();
  const TrafficTrace back = TrafficTrace::from_json(json);
  // The fixed point CI relies on: parse(print(x)) prints identically.
  EXPECT_EQ(back.to_json(), json);
  ASSERT_EQ(back.arrivals.size(), trace.arrivals.size());
  for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
    EXPECT_EQ(back.arrivals[i].class_name, trace.arrivals[i].class_name);
    EXPECT_EQ(back.arrivals[i].spec.tenant, trace.arrivals[i].spec.tenant);
    EXPECT_EQ(back.arrivals[i].spec.route, trace.arrivals[i].spec.route);
  }
}

TEST(TrafficTraceTest, JsonIsWellFormed) {
  const Json root = parse_json(generate_trace(TrafficSpec::ci_default()).to_json());
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.at("spec").is_object());
  ASSERT_TRUE(root.at("spec").at("classes").is_array());
  ASSERT_TRUE(root.at("arrivals").is_array());
  EXPECT_FALSE(root.at("arrivals").array.empty());
  const Json& first = root.at("arrivals").array.front();
  EXPECT_TRUE(first.has("t_ms"));
  EXPECT_TRUE(first.has("class"));
}

TEST(TrafficTraceTest, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(TrafficTrace::from_json(""), TrafficError);
  EXPECT_THROW(TrafficTrace::from_json("{\"broken"), TrafficError);
  EXPECT_THROW(TrafficTrace::from_json("[1,2]"), TrafficError);

  // An arrival referencing a class the spec doesn't define.
  TrafficTrace trace = generate_trace(TrafficSpec::ci_default());
  std::string json = trace.to_json();
  const std::string name = trace.arrivals.front().class_name;
  json.replace(json.find("\"class\":\"" + name), 9 + name.size() + 2,
               "\"class\":\"ghost\"");
  EXPECT_THROW(TrafficTrace::from_json(json), TrafficError);
}

// ---------------------------------------------------------------------------
// Replay

TEST(TrafficReplayTest, AccountsForEveryArrival) {
  TrafficSpec spec = TrafficSpec::ci_default();
  spec.duration_ms = 300;
  const TrafficTrace trace = generate_trace(spec);

  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.queue_capacity = trace.arrivals.size();  // shed-free replay
  ServeRuntime runtime(opts);
  const ReplayStats stats = replay_trace(runtime, trace, 8.0);
  runtime.drain();

  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(trace.arrivals.size()));
  EXPECT_EQ(stats.completed + stats.failed + stats.shed, stats.submitted);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_NE(stats.checksum, 0u);
  EXPECT_GT(stats.elapsed_ms, 0.0);
}

TEST(TrafficReplayTest, ChecksumIsAFunctionOfTheTraceNotTheFleet) {
  TrafficSpec spec = TrafficSpec::ci_default();
  spec.duration_ms = 200;
  const TrafficTrace trace = generate_trace(spec);

  std::uint64_t checksums[2];
  int i = 0;
  for (int devices : {1, 3}) {
    ServeRuntime::Options opts;
    opts.devices = devices;
    opts.queue_capacity = trace.arrivals.size();
    ServeRuntime runtime(opts);
    checksums[i++] = replay_trace(runtime, trace, 8.0).checksum;
    runtime.drain();
  }
  EXPECT_EQ(checksums[0], checksums[1]);
}

TEST(TrafficReplayTest, OverloadedBacklogShedsHonestly) {
  TrafficSpec spec = TrafficSpec::ci_default();
  spec.duration_ms = 200;
  spec.base_rate_hz = 200;
  const TrafficTrace trace = generate_trace(spec);

  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.queue_capacity = 2;  // tiny backlog: most of the burst sheds
  ServeRuntime runtime(opts);
  const ReplayStats stats = replay_trace(runtime, trace, 16.0);
  runtime.drain();

  EXPECT_GT(stats.shed, 0);
  EXPECT_EQ(stats.completed + stats.failed + stats.shed, stats.submitted);
}

TEST(TrafficReplayTest, RejectsNonPositiveSpeed) {
  const TrafficTrace trace = generate_trace(TrafficSpec::ci_default());
  ServeRuntime::Options opts;
  ServeRuntime runtime(opts);
  EXPECT_THROW(replay_trace(runtime, trace, 0.0), TrafficError);
  runtime.drain();
}

TEST(TrafficTraceTest, ControlBytesInTenantAndClassRoundTripByteForByte) {
  const std::string hostile = "ev\til\r\x01";
  TrafficSpec spec = TrafficSpec::ci_default();
  spec.duration_ms = 100;
  spec.classes[0].tenant = hostile;
  spec.classes[0].name = hostile + "-class";
  const TrafficTrace trace = generate_trace(spec);
  const std::string json = trace.to_json();
  EXPECT_EQ(parse_json(json).at("spec").at("classes").array[0].at("tenant").string, hostile);
  const TrafficTrace back = TrafficTrace::from_json(json);
  EXPECT_EQ(back.spec.classes[0].tenant, hostile);
  EXPECT_EQ(back.spec.classes[0].name, hostile + "-class");
  EXPECT_EQ(back.to_json(), json);
}

}  // namespace
}  // namespace saclo::serve
