// Telemetry layer contract: --telemetry spec parsing, the budget
// accountant, head-based trace sampling and exemplar determinism in the
// recorder, plan-order folding in the aggregate, and the journal codec
// round-trip for telemetry deltas (including exact-mode byte stability).
#include "ecnprobe/obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ecnprobe/obs/codec.hpp"
#include "ecnprobe/obs/ledger.hpp"

namespace ecnprobe::obs {
namespace {

TelemetryConfig sketched_config(std::uint64_t seed, int sample_every = 4) {
  TelemetryConfig config;
  config.mode = TelemetryMode::Sketched;
  config.sample_every = sample_every;
  return config.resolved(seed);
}

TEST(TelemetryConfig, ParsesExactAndSketchedSpecs) {
  const auto exact = TelemetryConfig::parse("exact");
  ASSERT_TRUE(exact);
  EXPECT_FALSE(exact->sketched());

  const auto sketched = TelemetryConfig::parse(
      "sketched,eps=0.01,delta=0.05,alpha=0.02,sample-every=16,reservoir=4,"
      "budget-kb=64,seed=7");
  ASSERT_TRUE(sketched);
  EXPECT_TRUE(sketched->sketched());
  EXPECT_DOUBLE_EQ(sketched->epsilon, 0.01);
  EXPECT_DOUBLE_EQ(sketched->delta, 0.05);
  EXPECT_DOUBLE_EQ(sketched->alpha, 0.02);
  EXPECT_EQ(sketched->sample_every, 16);
  EXPECT_EQ(sketched->reservoir, 4);
  EXPECT_EQ(sketched->budget_bytes, std::size_t{64} * 1024);
  EXPECT_EQ(sketched->seed, 7u);
}

TEST(TelemetryConfig, RejectsMalformedSpecs) {
  EXPECT_FALSE(TelemetryConfig::parse(""));
  EXPECT_FALSE(TelemetryConfig::parse("bogus"));
  EXPECT_FALSE(TelemetryConfig::parse("exact,eps=0.1"));
  EXPECT_FALSE(TelemetryConfig::parse("sketched,eps=banana"));
  EXPECT_FALSE(TelemetryConfig::parse("sketched,eps=0"));
  EXPECT_FALSE(TelemetryConfig::parse("sketched,sample-every=-3"));
  EXPECT_FALSE(TelemetryConfig::parse("sketched,unknown=1"));
}

TEST(TelemetryConfig, ResolvedInheritsCampaignSeed) {
  TelemetryConfig config;
  config.mode = TelemetryMode::Sketched;
  EXPECT_EQ(config.resolved(42).seed, 42u);
  config.seed = 9;
  EXPECT_EQ(config.resolved(42).seed, 9u);
}

TEST(TelemetryBudget, ChargesAndRejectsAtCap) {
  TelemetryBudget budget(100);
  EXPECT_TRUE(budget.try_charge(60));
  EXPECT_TRUE(budget.try_charge(40));
  EXPECT_FALSE(budget.try_charge(1));
  EXPECT_EQ(budget.used(), 100u);
  EXPECT_EQ(budget.admitted(), 2u);
  EXPECT_EQ(budget.rejected(), 1u);
  budget.release(40);
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_EQ(budget.peak(), 100u);
  // Zero cap = unlimited.
  TelemetryBudget unlimited;
  EXPECT_TRUE(unlimited.try_charge(std::size_t{1} << 40));
}

TEST(TelemetryRecorder, HeadBasedSamplingKeepsEveryNthTrace) {
  TelemetryRecorder recorder;
  recorder.arm(sketched_config(1, 4));
  for (int trace = 0; trace < 12; ++trace) {
    recorder.begin_trace(trace);
    EXPECT_EQ(recorder.trace_sampled_exact(), trace % 4 == 0) << trace;
  }
  recorder.disarm();
  recorder.begin_trace(3);
  // Disarmed = exact mode: every trace keeps exact records.
  EXPECT_TRUE(recorder.trace_sampled_exact());
}

TEST(TelemetryRecorder, ComposesCauseHopAndAsKeys) {
  TelemetryRecorder recorder;
  recorder.arm(sketched_config(1, 1));
  recorder.set_as_labeler([](std::string_view node) {
    return node == "10.0.0.1" ? "AS64496" : std::string();
  });
  recorder.begin_trace(0);
  recorder.on_drop("policy", "ect-udp-filter", "10.0.0.1");
  recorder.on_drop("policy", "ect-udp-filter", "10.0.0.2");
  recorder.on_rewrite("ip", "ecn-bleach");
  const auto delta = recorder.collect_delta();
  EXPECT_EQ(delta.counts.at("cause:policy/ect-udp-filter"), 2u);
  EXPECT_EQ(delta.counts.at("hop:10.0.0.1/ect-udp-filter"), 1u);
  EXPECT_EQ(delta.counts.at("hop:10.0.0.2/ect-udp-filter"), 1u);
  EXPECT_EQ(delta.counts.at("as:AS64496/ect-udp-filter"), 1u);
  EXPECT_EQ(delta.counts.at("rewrite:ip/ecn-bleach"), 1u);
  EXPECT_EQ(delta.counts.count("as:/ect-udp-filter"), 0u);
}

TEST(TelemetryRecorder, FoldedTracesReserveDeterministicExemplars) {
  const auto run = [](std::uint64_t seed) {
    TelemetryRecorder recorder;
    auto config = sketched_config(seed, 100);
    config.reservoir = 2;
    recorder.arm(config);
    recorder.begin_trace(1);  // unsampled: 1 % 100 != 0
    EXPECT_FALSE(recorder.trace_sampled_exact());
    for (int i = 0; i < 50; ++i) {
      recorder.on_drop("policy", "drop", "node-" + std::to_string(i));
    }
    return recorder.collect_delta();
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a.folded_records, 50u);
  EXPECT_EQ(a.exemplars.size(), 2u);
  EXPECT_EQ(a, b);  // reservoir choices are a pure function of (seed, trace)
  const auto c = run(8);
  EXPECT_EQ(c.folded_records, 50u);  // counts identical even if picks differ
}

TEST(TelemetryAggregate, FoldReconcilesWithinBound) {
  const auto config = sketched_config(42, 1);
  TelemetryAggregate aggregate(config);
  ASSERT_TRUE(aggregate.active());

  TelemetryRecorder recorder;
  recorder.arm(config);
  std::map<std::string, std::uint64_t> truth;
  for (int trace = 0; trace < 20; ++trace) {
    recorder.begin_trace(trace);
    for (int i = 0; i < 30; ++i) {
      const std::string node = "10.0." + std::to_string(trace) + "." + std::to_string(i);
      recorder.on_drop("policy", "ect-udp-filter", node);
      truth["cause:policy/ect-udp-filter"] += 1;
      truth["hop:" + node + "/ect-udp-filter"] += 1;
    }
    aggregate.fold(recorder.collect_delta());
  }
  EXPECT_EQ(aggregate.traces_folded(), 20u);
  const auto bound = aggregate.error_bound();
  for (const auto& [key, count] : truth) {
    const auto estimate = aggregate.estimate(key);
    EXPECT_GE(estimate, count) << key;
    EXPECT_LE(estimate, count + bound) << key;
  }
}

TEST(TelemetryAggregate, InactiveAggregateIgnoresFolds) {
  TelemetryAggregate aggregate;
  EXPECT_FALSE(aggregate.active());
  TelemetryDelta delta;
  delta.counts["cause:a/b"] = 3;
  aggregate.fold(delta);
  EXPECT_EQ(aggregate.estimate("cause:a/b"), 0u);
  EXPECT_EQ(aggregate.traces_folded(), 0u);
}

TEST(TelemetryCodec, DeltaRoundTripsThroughJournalCodec) {
  ObsSnapshot snapshot;
  snapshot.telemetry.counts["cause:policy/ect-udp-filter"] = 7;
  snapshot.telemetry.counts["hop:10.0.0.1/timeout"] = 2;
  snapshot.telemetry.rtt_buckets[12] = 5;
  snapshot.telemetry.rtt_count = 5;
  snapshot.telemetry.rtt_sum_nanos = 123456789;
  snapshot.telemetry.folded_records = 9;
  snapshot.telemetry.sampled_exact = 0;
  snapshot.telemetry.exemplars.push_back({3, "policy", "ect udp", "10.0.0.1"});

  const auto encoded = encode_obs(snapshot);
  const auto decoded = decode_obs(encoded);
  ASSERT_TRUE(decoded) << decoded.error().message;
  EXPECT_EQ(decoded->telemetry, snapshot.telemetry);
  EXPECT_EQ(encode_obs(*decoded), encoded);
}

TEST(TelemetryCodec, ExactModeSnapshotsEncodeWithoutTelemetryRecords) {
  ObsSnapshot snapshot;  // empty telemetry delta = exact mode
  const auto encoded = encode_obs(snapshot);
  EXPECT_EQ(encoded.find("\nT "), std::string::npos);
  EXPECT_EQ(encoded.find("\nL "), std::string::npos);
  EXPECT_EQ(encoded.find("\nQ "), std::string::npos);
  EXPECT_EQ(encoded.find("\nF "), std::string::npos);
  EXPECT_EQ(encoded.find("\nE "), std::string::npos);
  EXPECT_NE(encoded.rfind("T ", 0), 0u);
}

}  // namespace
}  // namespace ecnprobe::obs
