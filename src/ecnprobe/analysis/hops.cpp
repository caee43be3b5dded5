#include "ecnprobe/analysis/hops.hpp"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_map>

namespace ecnprobe::analysis {
namespace {

// How one responding hop's quotation looked; OR-ed across repetitions.
constexpr std::uint32_t kIntact = 1;
constexpr std::uint32_t kStripped = 2;
constexpr std::uint32_t kUnknown = 4;  ///< quote truncated before the ECN field

// One responding hop observation. Hop identity is (vantage, destination,
// responder); `path` packs the interned vantage index above the
// destination address.
struct HopKey {
  std::uint64_t path;
  std::uint32_t responder;
  std::uint32_t seen;

  bool same_hop(const HopKey& other) const {
    return path == other.path && responder == other.responder;
  }
  bool operator<(const HopKey& other) const {
    return path != other.path ? path < other.path : responder < other.responder;
  }
};

std::uint64_t pack(std::uint32_t high, std::uint32_t low) {
  return (static_cast<std::uint64_t>(high) << 32) | low;
}
std::uint32_t high_half(std::uint64_t v) { return static_cast<std::uint32_t>(v >> 32); }
std::uint32_t low_half(std::uint64_t v) { return static_cast<std::uint32_t>(v); }

}  // namespace

HopAnalysis analyze_hops(const std::vector<measure::TracerouteObservation>& observations,
                         const topology::IpToAsMap& ip2as) {
  HopAnalysis out;
  out.paths = observations.size();

  std::uint64_t responding_total = 0;
  for (const auto& obs : observations) {
    for (const auto& hop : obs.path.hops) {
      if (hop.responded) ++responding_total;
    }
  }
  std::vector<HopKey> keys;
  keys.reserve(responding_total);

  // Strip locations are identified by the first responder reporting a
  // stripped mark; the upstream neighbour is decided by majority vote over
  // all observations (individual traces may miss the true previous hop when
  // its ICMP generation is rate limited). One (curr, prev) pair per vote.
  std::vector<std::uint64_t> strip_votes;
  std::vector<std::uint32_t> unattributed_strips;  // first responder already stripped

  std::unordered_map<std::string_view, std::uint32_t> vantage_ids;
  for (const auto& obs : observations) {
    const auto vantage =
        vantage_ids.try_emplace(obs.vantage, static_cast<std::uint32_t>(vantage_ids.size()))
            .first->second;
    const auto path = pack(vantage, obs.path.destination.value());
    std::uint32_t prev_responder = 0;
    bool prev_was_intact = false;
    bool any_prev_responder = false;

    for (const auto& hop : obs.path.hops) {
      if (!hop.responded) continue;
      const auto responder = hop.responder.value();
      if (!hop.ecn_known) {
        // Truncated quote: the hop responded but its ECN field was never
        // observed. It neither passes nor strips, and it cannot anchor a
        // strip-location transition -- skip it for classification entirely.
        keys.push_back({path, responder, kUnknown});
        continue;
      }
      if (hop.quoted_ecn == wire::Ecn::Ce) ++out.ce_marks_seen;
      const bool intact = hop.quoted_ecn == hop.sent_ecn;
      keys.push_back({path, responder, intact ? kIntact : kStripped});

      // Strip-location detection: transition from an intact quotation to a
      // stripped one between consecutive responding hops.
      if (!intact) {
        if (any_prev_responder && prev_was_intact) {
          strip_votes.push_back(pack(responder, prev_responder));
        } else if (!any_prev_responder) {
          // Stripped before the first responding hop: cannot locate.
          unattributed_strips.push_back(responder);
        }
      }
      prev_responder = responder;
      prev_was_intact = intact;
      any_prev_responder = true;
    }
  }

  // Merge each hop's observations. Hops seen *only* with truncated quotes
  // are reported, not classified.
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint32_t> responders;  // of hops with a known ECN verdict
  for (std::size_t i = 0; i < keys.size();) {
    std::uint32_t seen = 0;
    std::size_t j = i;
    for (; j < keys.size() && keys[j].same_hop(keys[i]); ++j) seen |= keys[j].seen;
    if ((seen & (kIntact | kStripped)) == 0) {
      ++out.ecn_unknown_hops;
    } else {
      ++out.total_hops;
      responders.push_back(keys[i].responder);
      if ((seen & kStripped) != 0) {
        ++out.strip_hops;
        if ((seen & kIntact) != 0) ++out.sometimes_strip;
      } else {
        ++out.pass_hops;
      }
    }
    i = j;
  }
  keys = {};  // the largest table here; free it before building the rest

  // One ip2as lookup per distinct responder. Both ends of every strip vote
  // are responders with a known verdict, so they are all in this table.
  std::sort(responders.begin(), responders.end());
  responders.erase(std::unique(responders.begin(), responders.end()), responders.end());
  std::vector<std::optional<topology::Asn>> responder_asn;
  std::vector<topology::Asn> asns;
  responder_asn.reserve(responders.size());
  for (const auto responder : responders) {
    responder_asn.push_back(ip2as.lookup(wire::Ipv4Address{responder}));
    if (responder_asn.back()) asns.push_back(*responder_asn.back());
  }
  std::sort(asns.begin(), asns.end());
  out.ases_observed = static_cast<std::uint64_t>(
      std::unique(asns.begin(), asns.end()) - asns.begin());
  const auto asn_of = [&](std::uint32_t responder) {
    const auto it = std::lower_bound(responders.begin(), responders.end(), responder);
    return responder_asn[static_cast<std::size_t>(it - responders.begin())];
  };

  // Majority upstream neighbour per located strip: the highest vote count,
  // ties to the lowest address.
  std::sort(strip_votes.begin(), strip_votes.end());
  std::vector<std::uint32_t> located;
  for (std::size_t i = 0; i < strip_votes.size();) {
    const auto curr = high_half(strip_votes[i]);
    std::uint32_t majority_prev = 0;
    std::size_t best = 0;
    while (i < strip_votes.size() && high_half(strip_votes[i]) == curr) {
      std::size_t j = i;
      while (j < strip_votes.size() && strip_votes[j] == strip_votes[i]) ++j;
      if (j - i > best) {
        best = j - i;
        majority_prev = low_half(strip_votes[i]);
      }
      i = j;
    }
    located.push_back(curr);
    const auto as_prev = asn_of(majority_prev);
    const auto as_curr = asn_of(curr);
    if (as_prev && as_curr && *as_prev != *as_curr) ++out.strip_locations_at_boundary;
  }

  // Unattributed strips are only those never located by a vote.
  std::sort(unattributed_strips.begin(), unattributed_strips.end());
  unattributed_strips.erase(
      std::unique(unattributed_strips.begin(), unattributed_strips.end()),
      unattributed_strips.end());
  for (const auto curr : unattributed_strips) {
    if (!std::binary_search(located.begin(), located.end(), curr)) {
      ++out.strip_locations_unattributed;
    }
  }
  out.strip_locations = located.size() + out.strip_locations_unattributed;
  out.mean_responding_hops_per_path =
      out.paths == 0 ? 0.0
                     : static_cast<double>(responding_total) / static_cast<double>(out.paths);
  return out;
}

}  // namespace ecnprobe::analysis
