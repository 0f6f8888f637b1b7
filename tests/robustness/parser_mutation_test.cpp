// Seeded mutation robustness of the text grammars the project reads
// from outside: the fault-plan and traffic-spec CLI grammars, the
// telemetry endpoint's HTTP request line, and the mini-SaC lexer and
// parser over the downscaler's generated source (support/mutation.hpp;
// the ASan/UBSan CI job runs this suite too).

#include <gtest/gtest.h>

#include <string>

#include "apps/downscaler/config.hpp"
#include "apps/downscaler/sac_source.hpp"
#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "obs/telemetry.hpp"
#include "sac/lexer.hpp"
#include "sac/parser.hpp"
#include "serve/traffic.hpp"
#include "support/mutation.hpp"

namespace saclo {
namespace {

using testsupport::expect_value_or_typed_error;

TEST(ParserMutationTest, FaultPlanThrowsOnlyFaultPlanError) {
  expect_value_or_typed_error<fault::FaultPlanError>(
      "dev=0,after_kernels=3;dev=1,after_ms=2.5,kind=transfer,recurring;"
      "device=2,after_transfers=7,oneshot",
      31, [](const std::string& t) { fault::FaultPlan::parse(t); });
}

TEST(ParserMutationTest, TrafficSpecThrowsOnlyTrafficError) {
  expect_value_or_typed_error<serve::TrafficError>(
      "seed=7,duration_ms=2000,base_rate_hz=80,diurnal_amplitude=0.5,"
      "diurnal_period_ms=400,burst_rate_hz=4,burst_size_mean=6,burst_width_ms=5",
      41, [](const std::string& t) { serve::TrafficSpec::parse(t); });
}

TEST(ParserMutationTest, HttpRequestLineReturnsFalseOrTelemetryError) {
  expect_value_or_typed_error<obs::TelemetryError>(
      "GET /debug/events?n=16&tenant=gold%20tier&flag HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", 51,
      [](const std::string& t) {
        obs::HttpRequest request;
        return obs::parse_http_request(t, request);
      });
}

TEST(ParserMutationTest, SacLexerThrowsOnlyParseError) {
  expect_value_or_typed_error<sac::ParseError>(
      apps::downscaler_sac_source(apps::DownscalerConfig::tiny()), 61,
      [](const std::string& t) { sac::lex(t); });
}

TEST(ParserMutationTest, SacParserThrowsOnlyParseError) {
  expect_value_or_typed_error<sac::ParseError>(
      apps::downscaler_sac_source(apps::DownscalerConfig::tiny()), 71,
      [](const std::string& t) { sac::parse(t); });
}

}  // namespace
}  // namespace saclo
