// Differential test: the flat analyze_hops against the map-based reference
// it replaced, on seeded random observation sets built to hit every
// classification rule (repeated and interleaved vantages, truncated quotes,
// CE, strips before the first responder, tied strip votes, responders the
// ip2as map does not know).
#include <algorithm>
#include <bit>
#include <string>

#include <gtest/gtest.h>

#include "ecnprobe/util/rng.hpp"
#include "hops_reference.hpp"

namespace ecnprobe::analysis {
namespace {

using measure::TracerouteObservation;
using traceroute::HopRecord;

void expect_same(const HopAnalysis& got, const HopAnalysis& want, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.total_hops, want.total_hops);
  EXPECT_EQ(got.pass_hops, want.pass_hops);
  EXPECT_EQ(got.strip_hops, want.strip_hops);
  EXPECT_EQ(got.sometimes_strip, want.sometimes_strip);
  EXPECT_EQ(got.ce_marks_seen, want.ce_marks_seen);
  EXPECT_EQ(got.ecn_unknown_hops, want.ecn_unknown_hops);
  EXPECT_EQ(got.strip_locations, want.strip_locations);
  EXPECT_EQ(got.strip_locations_at_boundary, want.strip_locations_at_boundary);
  EXPECT_EQ(got.strip_locations_unattributed, want.strip_locations_unattributed);
  EXPECT_EQ(got.ases_observed, want.ases_observed);
  EXPECT_EQ(got.paths, want.paths);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_responding_hops_per_path),
            std::bit_cast<std::uint64_t>(want.mean_responding_hops_per_path));
}

wire::Ipv4Address router(std::uint64_t index) {
  return wire::Ipv4Address(12, 0, static_cast<std::uint8_t>(index / 4),
                           static_cast<std::uint8_t>(index % 4 + 1));
}

/// Routers 12.0.x.y: some mapped by /32, some only by their /24, the rest
/// unmapped; a handful of ASNs so boundaries and non-boundaries both occur.
topology::IpToAsMap random_map(util::Rng& rng, std::uint64_t routers) {
  topology::IpToAsMap map;
  for (std::uint64_t block = 0; block * 4 < routers; ++block) {
    if (rng.bernoulli(0.3)) {
      map.add(wire::Ipv4Address(12, 0, static_cast<std::uint8_t>(block), 0), 24,
              static_cast<topology::Asn>(100 + rng.next_below(4)));
    }
  }
  for (std::uint64_t i = 0; i < routers; ++i) {
    if (rng.bernoulli(0.6)) {
      map.add(router(i), 32, static_cast<topology::Asn>(100 + rng.next_below(4)));
    }
  }
  return map;
}

HopRecord random_hop(util::Rng& rng, int ttl, std::uint64_t routers) {
  HopRecord hop;
  hop.ttl = static_cast<std::uint8_t>(ttl);
  hop.sent_ecn = rng.bernoulli(0.9) ? wire::Ecn::Ect0 : wire::Ecn::Ect1;
  if (!rng.bernoulli(0.8)) return hop;  // silent
  hop.responded = true;
  hop.responder = router(rng.next_below(routers));
  if (rng.bernoulli(0.15)) {
    hop.ecn_known = false;
    hop.quote_truncated = true;
    return hop;
  }
  const auto roll = rng.next_double();
  hop.quoted_ecn = roll < 0.6    ? hop.sent_ecn
                   : roll < 0.85 ? wire::Ecn::NotEct
                   : roll < 0.95 ? wire::Ecn::Ce
                                 : wire::Ecn::Ect1;
  return hop;
}

std::vector<TracerouteObservation> random_observations(util::Rng& rng,
                                                       std::uint64_t routers) {
  // Names that share prefixes and lengths, so interning cannot lean on
  // either.
  static const std::vector<std::string> kVantages = {"A", "B", "AB", "EC2 Vir", "EC2 Vi"};
  const auto vantages = 1 + rng.next_below(kVantages.size());
  const auto destinations = 1 + rng.next_below(5);
  std::vector<TracerouteObservation> out;
  const auto paths = rng.next_below(25);
  for (std::uint64_t p = 0; p < paths; ++p) {
    TracerouteObservation obs;
    obs.vantage = kVantages[rng.next_below(vantages)];
    obs.path.destination = wire::Ipv4Address(
        11, 0, 0, static_cast<std::uint8_t>(1 + rng.next_below(destinations)));
    const auto length = rng.next_below(9);
    for (std::uint64_t t = 0; t < length; ++t) {
      obs.path.hops.push_back(random_hop(rng, static_cast<int>(t + 1), routers));
    }
    out.push_back(obs);
    // Repetitions of the same (vantage, destination): some hops keep their
    // responder and change their quote, some keep everything.
    const auto repetitions = rng.next_below(3);
    for (std::uint64_t r = 0; r < repetitions; ++r) {
      auto again = obs;
      again.repetition = static_cast<int>(r + 1);
      for (auto& hop : again.path.hops) {
        if (!rng.bernoulli(0.3)) continue;
        const auto responder = hop.responder;
        const bool responded = hop.responded;
        hop = random_hop(rng, hop.ttl, routers);
        if (responded && hop.responded) hop.responder = responder;
      }
      out.push_back(std::move(again));
    }
  }
  // Interleave: repetitions and vantages end up non-adjacent.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

TEST(HopAnalysisDifferential, MatchesReferenceOnRandomObservationSets) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    // Few routers: the same responder recurs across paths and positions.
    const auto routers = 2 + rng.next_below(12);
    const auto map = random_map(rng, routers);
    auto observations = random_observations(rng, routers);
    const auto want = analyze_hops_reference(observations, map);
    expect_same(analyze_hops(observations, map), want, "seed " + std::to_string(seed));
    // The result does not depend on the input order.
    std::reverse(observations.begin(), observations.end());
    expect_same(analyze_hops(observations, map), want,
                "seed " + std::to_string(seed) + " reversed");
  }
}

TEST(HopAnalysisDifferential, RandomSetsHitEveryRule) {
  // Guards the generator above: across the seeds, each rule the
  // differential test is meant to exercise fires at least once.
  HopAnalysis sum;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    const auto routers = 2 + rng.next_below(12);
    const auto map = random_map(rng, routers);
    const auto a = analyze_hops_reference(random_observations(rng, routers), map);
    sum.sometimes_strip += a.sometimes_strip;
    sum.ce_marks_seen += a.ce_marks_seen;
    sum.ecn_unknown_hops += a.ecn_unknown_hops;
    sum.strip_locations_at_boundary += a.strip_locations_at_boundary;
    sum.strip_locations_unattributed += a.strip_locations_unattributed;
    sum.strip_locations += a.strip_locations;
  }
  EXPECT_GT(sum.sometimes_strip, 0u);
  EXPECT_GT(sum.ce_marks_seen, 0u);
  EXPECT_GT(sum.ecn_unknown_hops, 0u);
  EXPECT_GT(sum.strip_locations_at_boundary, 0u);
  EXPECT_GT(sum.strip_locations_unattributed, 0u);
  EXPECT_GT(sum.strip_locations,
            sum.strip_locations_at_boundary + sum.strip_locations_unattributed);
}

HopRecord known(std::uint8_t responder_octet, wire::Ecn quoted) {
  HopRecord h;
  h.responded = true;
  h.responder = wire::Ipv4Address(12, 0, 0, responder_octet);
  h.sent_ecn = wire::Ecn::Ect0;
  h.quoted_ecn = quoted;
  return h;
}

TracerouteObservation path(const std::string& vantage, std::uint8_t dest_octet,
                           std::vector<HopRecord> hops) {
  TracerouteObservation o;
  o.vantage = vantage;
  o.path.destination = wire::Ipv4Address(11, 0, 0, dest_octet);
  o.path.hops = std::move(hops);
  return o;
}

TEST(HopAnalysisDifferential, TiedStripVoteGoesToLowestUpstreamAddress) {
  // Router 3 strips; routers 1 and 2 are each seen upstream of it once.
  // Router 1 shares router 3's AS, router 2 does not: the tie decides
  // whether the location sits at an AS boundary.
  topology::IpToAsMap map;
  map.add(wire::Ipv4Address(12, 0, 0, 1), 32, 200);
  map.add(wire::Ipv4Address(12, 0, 0, 2), 32, 100);
  map.add(wire::Ipv4Address(12, 0, 0, 3), 32, 200);
  const auto up2 = path("A", 1, {known(2, wire::Ecn::Ect0), known(3, wire::Ecn::NotEct)});
  const auto up1 = path("B", 2, {known(1, wire::Ecn::Ect0), known(3, wire::Ecn::NotEct)});
  for (const auto& observations : {std::vector{up2, up1}, std::vector{up1, up2}}) {
    const auto got = analyze_hops(observations, map);
    expect_same(got, analyze_hops_reference(observations, map), "tie");
    EXPECT_EQ(got.strip_locations, 1u);
    EXPECT_EQ(got.strip_locations_at_boundary, 0u);
  }
  // A second vote for router 2 breaks the tie the other way.
  const auto again = path("C", 1, {known(2, wire::Ecn::Ect0), known(3, wire::Ecn::NotEct)});
  const auto got = analyze_hops({up1, up2, again}, map);
  EXPECT_EQ(got.strip_locations_at_boundary, 1u);
}

TEST(HopAnalysisDifferential, UnknownOnlyHopsAreCountedOncePerHop) {
  auto truncated = known(2, wire::Ecn::NotEct);
  truncated.ecn_known = false;
  truncated.quote_truncated = true;
  topology::IpToAsMap map;  // nothing mapped
  // Hop (A, 1, router 2) only ever truncated, twice; hop (A, 2, router 2)
  // truncated once and complete once.
  const std::vector<TracerouteObservation> observations = {
      path("A", 1, {known(1, wire::Ecn::Ect0), truncated}),
      path("A", 2, {truncated}),
      path("A", 1, {truncated}),
      path("A", 2, {known(2, wire::Ecn::Ect0)}),
  };
  const auto got = analyze_hops(observations, map);
  expect_same(got, analyze_hops_reference(observations, map), "unknown-only");
  EXPECT_EQ(got.ecn_unknown_hops, 1u);
  EXPECT_EQ(got.total_hops, 2u);
  EXPECT_EQ(got.ases_observed, 0u);
}

}  // namespace
}  // namespace ecnprobe::analysis
