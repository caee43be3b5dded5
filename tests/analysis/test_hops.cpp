#include "ecnprobe/analysis/hops.hpp"

#include <gtest/gtest.h>

namespace ecnprobe::analysis {
namespace {

using measure::TracerouteObservation;
using traceroute::HopRecord;
using traceroute::PathRecord;

HopRecord hop(int ttl, std::uint8_t responder_octet, wire::Ecn quoted,
              wire::Ecn sent = wire::Ecn::Ect0) {
  HopRecord h;
  h.ttl = static_cast<std::uint8_t>(ttl);
  h.responded = responder_octet != 0;
  h.responder = wire::Ipv4Address(12, 0, 0, responder_octet);
  h.sent_ecn = sent;
  h.quoted_ecn = quoted;
  return h;
}

TracerouteObservation obs(const std::string& vantage, std::uint8_t dest_octet,
                          std::vector<HopRecord> hops, int rep = 0) {
  TracerouteObservation o;
  o.vantage = vantage;
  o.repetition = rep;
  o.path.destination = wire::Ipv4Address(11, 0, 0, dest_octet);
  o.path.hops = std::move(hops);
  return o;
}

topology::IpToAsMap two_as_map() {
  topology::IpToAsMap map;
  // Routers 1-2 in AS 100; routers 3-4 in AS 200.
  map.add(wire::Ipv4Address(12, 0, 0, 1), 32, 100);
  map.add(wire::Ipv4Address(12, 0, 0, 2), 32, 100);
  map.add(wire::Ipv4Address(12, 0, 0, 3), 32, 200);
  map.add(wire::Ipv4Address(12, 0, 0, 4), 32, 200);
  return map;
}

TEST(HopAnalysis, CleanPathAllPass) {
  const auto analysis = analyze_hops(
      {obs("A", 1,
           {hop(1, 1, wire::Ecn::Ect0), hop(2, 2, wire::Ecn::Ect0),
            hop(3, 3, wire::Ecn::Ect0)})},
      two_as_map());
  EXPECT_EQ(analysis.total_hops, 3u);
  EXPECT_EQ(analysis.pass_hops, 3u);
  EXPECT_EQ(analysis.strip_hops, 0u);
  EXPECT_EQ(analysis.strip_locations, 0u);
  EXPECT_DOUBLE_EQ(analysis.pct_hops_passing(), 100.0);
  EXPECT_EQ(analysis.ases_observed, 2u);
  EXPECT_EQ(analysis.paths, 1u);
  EXPECT_DOUBLE_EQ(analysis.mean_responding_hops_per_path, 3.0);
}

TEST(HopAnalysis, StripAtAsBoundaryAttributed) {
  // Mark intact through AS 100, stripped from the first AS-200 router on.
  const auto analysis = analyze_hops(
      {obs("A", 1,
           {hop(1, 1, wire::Ecn::Ect0), hop(2, 2, wire::Ecn::Ect0),
            hop(3, 3, wire::Ecn::NotEct), hop(4, 4, wire::Ecn::NotEct)})},
      two_as_map());
  EXPECT_EQ(analysis.total_hops, 4u);
  EXPECT_EQ(analysis.pass_hops, 2u);
  EXPECT_EQ(analysis.strip_hops, 2u);  // the "run of red"
  EXPECT_EQ(analysis.strip_locations, 1u);
  EXPECT_EQ(analysis.strip_locations_at_boundary, 1u);
  EXPECT_DOUBLE_EQ(analysis.pct_strips_at_boundary(), 100.0);
}

TEST(HopAnalysis, IntraAsStripNotBoundary) {
  // Strip between routers 1 and 2, both in AS 100.
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::Ect0), hop(2, 2, wire::Ecn::NotEct)})},
      two_as_map());
  EXPECT_EQ(analysis.strip_locations, 1u);
  EXPECT_EQ(analysis.strip_locations_at_boundary, 0u);
  EXPECT_DOUBLE_EQ(analysis.pct_strips_at_boundary(), 0.0);
}

TEST(HopAnalysis, SometimesStripDetectedAcrossRepetitions) {
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::Ect0), hop(2, 2, wire::Ecn::Ect0)}, 0),
       obs("A", 1, {hop(1, 1, wire::Ecn::Ect0), hop(2, 2, wire::Ecn::NotEct)}, 1)},
      two_as_map());
  EXPECT_EQ(analysis.total_hops, 2u);
  EXPECT_EQ(analysis.strip_hops, 1u);
  EXPECT_EQ(analysis.sometimes_strip, 1u);
  // "pass" percentage counts the flapping hop as passing (it sometimes does),
  // matching the paper's 154421 = always + sometimes arithmetic.
  EXPECT_DOUBLE_EQ(analysis.pct_hops_passing(), 100.0);
}

TEST(HopAnalysis, SilentHopsDoNotCount) {
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 0, wire::Ecn::NotEct), hop(2, 2, wire::Ecn::Ect0)})},
      two_as_map());
  EXPECT_EQ(analysis.total_hops, 1u);  // only the responding hop
  EXPECT_DOUBLE_EQ(analysis.mean_responding_hops_per_path, 1.0);
}

TEST(HopAnalysis, StripBeforeFirstResponderIsUnattributed) {
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::NotEct), hop(2, 2, wire::Ecn::NotEct)})},
      two_as_map());
  EXPECT_EQ(analysis.strip_locations, 1u);
  EXPECT_EQ(analysis.strip_locations_unattributed, 1u);
  EXPECT_EQ(analysis.strip_locations_at_boundary, 0u);
}

TEST(HopAnalysis, SameHopFromTwoVantagesCountsTwice) {
  // The paper's unit is (vantage, destination, responder).
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::Ect0)}),
       obs("B", 1, {hop(1, 1, wire::Ecn::Ect0)})},
      two_as_map());
  EXPECT_EQ(analysis.total_hops, 2u);
}

TEST(HopAnalysis, CeMarksCounted) {
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::Ce)})}, two_as_map());
  EXPECT_EQ(analysis.ce_marks_seen, 1u);
  // CE != sent ECT(0): counts as modified.
  EXPECT_EQ(analysis.strip_hops, 1u);
}

HopRecord unknown_hop(int ttl, std::uint8_t responder_octet) {
  auto h = hop(ttl, responder_octet, wire::Ecn::NotEct);
  h.ecn_known = false;
  h.quote_truncated = true;
  return h;
}

TEST(HopAnalysis, TruncatedQuoteHopsReportedNotClassified) {
  // Hop 2's quote is always cut before the ECN octet: it must land in
  // ecn_unknown_hops, never in strip_hops (its quoted_ecn field is
  // meaningless NotEct).
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::Ect0), unknown_hop(2, 2),
                    hop(3, 3, wire::Ecn::Ect0)})},
      two_as_map());
  EXPECT_EQ(analysis.total_hops, 2u);
  EXPECT_EQ(analysis.pass_hops, 2u);
  EXPECT_EQ(analysis.strip_hops, 0u);
  EXPECT_EQ(analysis.ecn_unknown_hops, 1u);
  // Unknown hops still count as responding for the per-path mean.
  EXPECT_DOUBLE_EQ(analysis.mean_responding_hops_per_path, 3.0);
}

TEST(HopAnalysis, TruncatedQuoteDoesNotAnchorStripLocation) {
  // 1 intact, 2 unknown, 3 stripped: the intact->stripped transition must
  // not be attributed across the unknown hop (we cannot know whether hop 2
  // passed or stripped the mark).
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::Ect0), unknown_hop(2, 2),
                    hop(3, 3, wire::Ecn::NotEct)})},
      two_as_map());
  EXPECT_EQ(analysis.strip_hops, 1u);
  EXPECT_EQ(analysis.ecn_unknown_hops, 1u);
  // The strip location is attributed to the last *known* intact hop.
  EXPECT_EQ(analysis.strip_locations, 1u);
}

TEST(HopAnalysis, HopSeenBothTruncatedAndCompleteIsClassified) {
  // One repetition truncated, one complete: the complete observation wins
  // and the hop is not double-counted as unknown.
  const auto analysis = analyze_hops(
      {obs("A", 1, {hop(1, 1, wire::Ecn::Ect0), unknown_hop(2, 2)}, 0),
       obs("A", 1, {hop(1, 1, wire::Ecn::Ect0), hop(2, 2, wire::Ecn::Ect0)}, 1)},
      two_as_map());
  EXPECT_EQ(analysis.total_hops, 2u);
  EXPECT_EQ(analysis.pass_hops, 2u);
  EXPECT_EQ(analysis.ecn_unknown_hops, 0u);
}

TEST(HopAnalysis, EmptyObservationsAreSafe) {
  const auto analysis = analyze_hops({}, two_as_map());
  EXPECT_EQ(analysis.total_hops, 0u);
  EXPECT_EQ(analysis.pct_hops_passing(), 0.0);
  EXPECT_EQ(analysis.pct_strips_at_boundary(), 0.0);
}

}  // namespace
}  // namespace ecnprobe::analysis
