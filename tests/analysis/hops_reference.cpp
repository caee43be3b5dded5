#include "hops_reference.hpp"

#include <map>
#include <set>
#include <tuple>

namespace ecnprobe::analysis {

HopAnalysis analyze_hops_reference(
    const std::vector<measure::TracerouteObservation>& observations,
    const topology::IpToAsMap& ip2as) {
  HopAnalysis out;

  // Hop identity: (vantage, destination, responder). Value: how its
  // quotations looked across repetitions.
  struct HopSeen {
    bool intact = false;
    bool stripped = false;
  };
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>, HopSeen> hops;
  // Strip locations are identified by the first responder reporting a
  // stripped mark; the upstream neighbour is decided by majority vote over
  // all observations (individual traces may miss the true previous hop when
  // its ICMP generation is rate limited).
  std::map<std::uint32_t, std::map<std::uint32_t, int>> strip_prev_votes;  // curr -> prev
  std::set<std::uint32_t> unattributed_strips;  // first responder already stripped
  std::set<std::tuple<std::string, std::uint32_t, std::uint32_t>> ecn_unknown;
  std::set<topology::Asn> asns;

  std::uint64_t responding_total = 0;
  for (const auto& obs : observations) {
    ++out.paths;
    std::uint32_t prev_responder = 0;
    bool prev_was_intact = false;
    bool any_prev_responder = false;

    for (const auto& hop : obs.path.hops) {
      if (!hop.responded) continue;
      ++responding_total;
      if (!hop.ecn_known) {
        // Truncated quote: the hop responded but its ECN field was never
        // observed. It neither passes nor strips, and it cannot anchor a
        // strip-location transition -- skip it for classification entirely.
        ecn_unknown.insert({obs.vantage, obs.path.destination.value(),
                            hop.responder.value()});
        continue;
      }
      auto& seen = hops[{obs.vantage, obs.path.destination.value(),
                         hop.responder.value()}];
      if (hop.quoted_ecn == wire::Ecn::Ce) ++out.ce_marks_seen;
      const bool intact = hop.quoted_ecn == hop.sent_ecn;
      if (intact) seen.intact = true;
      else seen.stripped = true;

      if (const auto asn = ip2as.lookup(hop.responder)) asns.insert(*asn);

      // Strip-location detection: transition from an intact quotation to a
      // stripped one between consecutive responding hops.
      if (!intact) {
        if (any_prev_responder && prev_was_intact) {
          ++strip_prev_votes[hop.responder.value()][prev_responder];
        } else if (!any_prev_responder) {
          // Stripped before the first responding hop: cannot locate.
          unattributed_strips.insert(hop.responder.value());
        }
      }
      prev_responder = hop.responder.value();
      prev_was_intact = intact;
      any_prev_responder = true;
    }
  }

  out.total_hops = hops.size();
  // Hops seen *only* with truncated quotes: reported, not classified.
  for (const auto& key : ecn_unknown) {
    if (!hops.contains(key)) ++out.ecn_unknown_hops;
  }
  for (const auto& [_, seen] : hops) {
    if (seen.stripped) {
      ++out.strip_hops;
      if (seen.intact) ++out.sometimes_strip;
    } else {
      ++out.pass_hops;
    }
  }
  std::uint64_t boundary = 0;
  for (const auto& [curr, votes] : strip_prev_votes) {
    unattributed_strips.erase(curr);  // located: drop from the fallback set
    std::uint32_t majority_prev = 0;
    int best = 0;
    for (const auto& [prev, count] : votes) {
      if (count > best) {
        best = count;
        majority_prev = prev;
      }
    }
    const auto as_prev = ip2as.lookup(wire::Ipv4Address{majority_prev});
    const auto as_curr = ip2as.lookup(wire::Ipv4Address{curr});
    if (as_prev && as_curr && *as_prev != *as_curr) ++boundary;
  }
  out.strip_locations = strip_prev_votes.size() + unattributed_strips.size();
  out.strip_locations_at_boundary = boundary;
  out.strip_locations_unattributed = unattributed_strips.size();
  out.ases_observed = asns.size();
  out.mean_responding_hops_per_path =
      out.paths == 0 ? 0.0
                     : static_cast<double>(responding_total) / static_cast<double>(out.paths);
  return out;
}

}  // namespace ecnprobe::analysis
