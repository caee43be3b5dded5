#include "ecnprobe/obs/codec.hpp"

#include <gtest/gtest.h>

#include "ecnprobe/obs/metrics.hpp"

namespace ecnprobe::obs {
namespace {

ObsSnapshot sample_snapshot() {
  MetricsRegistry registry;
  registry.counter("probes_sent_total", {{"ecn", "ect0"}}, "probes sent")->inc(17);
  registry.counter("probes_sent_total", {{"ecn", "not-ect"}})->inc(3);
  registry.gauge("inflight", {}, "in-flight probes")->set(-4);
  auto* hist = registry.histogram("rtt_ms", {1.0, 10.0, 100.5}, {{"vantage", "UGla wired"}},
                                  "round trips");
  hist->observe(0.5);
  hist->observe(42.0);
  hist->observe(5000.0);

  Observability obs;
  obs.ledger.record_drop(Layer::Link, DropCause::LinkLoss, "r1");
  obs.ledger.record_drop(Layer::Link, DropCause::LinkLoss, "r1");
  obs.ledger.record_drop(Layer::Measure, DropCause::TraceQuarantined, "EC2 Tok");
  obs.ledger.record_rewrite(Layer::Policy, RewriteCause::Bleached, "r2");

  ObsSnapshot snapshot;
  snapshot.metrics = registry.snapshot();
  snapshot.ledger = obs.ledger.delta_since();
  return snapshot;
}

TEST(ObsCodec, RoundTripsByteExactly) {
  const auto snapshot = sample_snapshot();
  const auto text = encode_obs(snapshot);
  const auto decoded = decode_obs(text);
  ASSERT_TRUE(decoded) << decoded.error().message;
  // The codec's contract: decode(encode(s)) re-encodes to the same bytes.
  EXPECT_EQ(encode_obs(*decoded), text);
  EXPECT_EQ(decoded->ledger.total_drops(), snapshot.ledger.total_drops());
  EXPECT_EQ(decoded->ledger.total_rewrites(), snapshot.ledger.total_rewrites());
}

TEST(ObsCodec, EmptySnapshotRoundTrips) {
  const ObsSnapshot empty;
  const auto decoded = decode_obs(encode_obs(empty));
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->metrics.empty());
  EXPECT_EQ(decoded->ledger.total_drops(), 0u);
}

TEST(ObsCodec, TokensSurviveHostileStrings) {
  // Labels with spaces, percent signs, newlines, and the empty string.
  for (const std::string raw : {"", " ", "a b", "100%", "line\nbreak", "%20", "\r\n%"}) {
    const auto token = escape_token(raw);
    EXPECT_FALSE(token.empty());
    EXPECT_EQ(token.find(' '), std::string::npos) << raw;
    EXPECT_EQ(token.find('\n'), std::string::npos) << raw;
    const auto back = unescape_token(token);
    ASSERT_TRUE(back) << raw;
    EXPECT_EQ(*back, raw);
  }
}

TEST(ObsCodec, MalformedInputRejectedNotCrashed) {
  EXPECT_FALSE(decode_obs("S 0 1 0 0 0 0"));      // sample before any family
  EXPECT_FALSE(decode_obs("M onlyname"));          // short family line
  EXPECT_FALSE(decode_obs("D link"));              // short ledger line
  EXPECT_FALSE(decode_obs("X what is this"));      // unknown record type
  EXPECT_FALSE(decode_obs("D link link-loss notanumber"));
}

TEST(ObsCodec, MergeOfDecodedDeltasMatchesDirectMerge) {
  // The resume path decodes per-trace deltas and merges them; that must
  // equal merging the originals.
  const auto a = sample_snapshot();
  auto direct = sample_snapshot();
  direct.merge(a);

  auto via_codec = *decode_obs(encode_obs(a));
  via_codec.merge(*decode_obs(encode_obs(a)));
  EXPECT_EQ(encode_obs(via_codec), encode_obs(direct));
}

}  // namespace
}  // namespace ecnprobe::obs
