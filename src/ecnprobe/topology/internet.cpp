#include "ecnprobe/topology/internet.hpp"

#include <algorithm>
#include <stdexcept>

#include "ecnprobe/util/log.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::topology {

using netsim::kInvalidNode;
using netsim::kNoInterface;
using netsim::LinkParams;
using netsim::NodeId;

namespace {

constexpr std::uint32_t kAddressBase = (11u << 24);  // 11.0.0.0
constexpr int kAsPrefixLen = 18;                     // /18 per AS (16384 addrs)
constexpr Asn kFirstAsn = 100;

// Regional stub-AS shares follow the paper's Table 1 server distribution.
struct RegionShare {
  geo::Region region;
  double share;
};
constexpr RegionShare kRegionShares[] = {
    {geo::Region::Europe, 0.666},       {geo::Region::NorthAmerica, 0.209},
    {geo::Region::Asia, 0.076},         {geo::Region::Australia, 0.027},
    {geo::Region::SouthAmerica, 0.013}, {geo::Region::Africa, 0.009},
};

LinkParams make_link(util::Rng& rng, double delay_lo_ms, double delay_hi_ms,
                     double loss = 0.0) {
  LinkParams link;
  link.delay = util::SimDuration::from_seconds(rng.uniform(delay_lo_ms, delay_hi_ms) / 1e3);
  link.jitter = util::SimDuration::from_seconds(rng.uniform(0.05, 0.4) / 1e3);
  link.loss_rate = loss;
  return link;
}

}  // namespace

Internet::Internet(netsim::Simulator& sim, util::Rng rng)
    : sim_(sim), rng_(rng), net_(sim, rng.fork("network")) {}

std::unique_ptr<Internet> Internet::build(netsim::Simulator& sim,
                                          const TopologyParams& params, util::Rng rng) {
  std::unique_ptr<Internet> internet(new Internet(sim, rng));
  internet->build_graph(params);
  internet->net_.set_routing_oracle(
      [raw = internet.get()](NodeId at, wire::Ipv4Address dst) {
        return raw->route_oracle(at, dst);
      });
  return internet;
}

wire::Ipv4Address Internet::allocate_address(Asn asn) {
  const AsInfo& as = as_info(asn);
  std::uint32_t& cursor = next_host_addr_[asn];
  const std::uint32_t block_size = 1u << (32 - as.prefix_len);
  if (cursor >= block_size - 1) {
    throw std::runtime_error("Internet::allocate_address: AS block exhausted");
  }
  // Skip .0 (network address by convention).
  const wire::Ipv4Address addr{as.prefix.value() + ++cursor};
  ip2as_.add(addr, 32, asn);  // host routes share the AS prefix; /32 is exact
  return addr;
}

NodeId Internet::add_router(AsInfo& as, const TopologyParams& params) {
  netsim::Router::Params router_params;
  router_params.icmp_response_prob =
      rng_.uniform(params.icmp_response_prob_min, params.icmp_response_prob_max);
  const auto name =
      util::strf("r%zu.as%u", as.routers.size(), as.asn);
  auto router = std::make_unique<netsim::Router>(
      name, router_params, rng_.fork(name));
  const NodeId id = net_.add_node(std::move(router));
  // Router addresses come from the AS block, so traceroute responders map to
  // the right AS.
  const std::uint32_t block_size = 1u << (32 - as.prefix_len);
  std::uint32_t& cursor = next_host_addr_[as.asn];
  if (cursor >= block_size - 1) throw std::runtime_error("router address exhausted");
  net_.node(id).set_address(wire::Ipv4Address{as.prefix.value() + ++cursor});
  router_of_[id] = as.asn;
  as.routers.push_back(id);
  return id;
}

void Internet::connect_routers(NodeId a, NodeId b, const LinkParams& link, bool inter_as,
                               Asn asn_a, Asn asn_b) {
  const auto [if_a, if_b] = net_.connect(a, b, link);
  if (adjacency_.size() <= std::max(a, b)) adjacency_.resize(std::max(a, b) + 1);
  adjacency_[a].push_back({b, if_a});
  adjacency_[b].push_back({a, if_b});
  const auto key = [](NodeId n, int i) {
    return (static_cast<std::uint64_t>(n) << 32) | static_cast<std::uint32_t>(i);
  };
  inter_as_if_[key(a, if_a)] = inter_as;
  inter_as_if_[key(b, if_b)] = inter_as;
  if (inter_as) {
    inter_as_links_.push_back(InterAsLink{{a, if_a}, {b, if_b}, asn_a, asn_b});
  } else {
    intra_as_interfaces_.push_back({a, if_a});
    intra_as_interfaces_.push_back({b, if_b});
  }
}

void Internet::build_graph(const TopologyParams& params) {
  std::uint32_t next_block = kAddressBase;
  Asn next_asn = kFirstAsn;

  auto new_as = [&](int tier, geo::Region region) -> AsInfo& {
    AsInfo as;
    as.asn = next_asn++;
    as.tier = tier;
    as.region = region;
    as.prefix = wire::Ipv4Address{next_block};
    as.prefix_len = kAsPrefixLen;
    next_block += 1u << (32 - kAsPrefixLen);
    as_index_[as.asn] = ases_.size();
    next_host_addr_[as.asn] = 0;
    ip2as_.add(as.prefix, as.prefix_len, as.asn);
    ases_.push_back(std::move(as));
    return ases_.back();
  };

  // --- tier 1: global transit, full mesh -------------------------------
  std::vector<std::size_t> tier1;
  for (int i = 0; i < params.tier1_count; ++i) {
    AsInfo& as = new_as(1, geo::Region::Unknown);
    for (int r = 0; r < params.routers_per_tier1; ++r) add_router(as, params);
    // Intra-AS ring so every router pair is connected within two hops.
    for (std::size_t r = 0; r + 1 < as.routers.size(); ++r) {
      connect_routers(as.routers[r], as.routers[r + 1], make_link(rng_, 0.5, 3.0),
                      false, as.asn, as.asn);
    }
    if (as.routers.size() > 2) {
      connect_routers(as.routers.back(), as.routers.front(), make_link(rng_, 0.5, 3.0),
                      false, as.asn, as.asn);
    }
    tier1.push_back(as_index_[as.asn]);
  }
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      AsInfo& a = ases_[tier1[i]];
      AsInfo& b = ases_[tier1[j]];
      connect_routers(a.routers[rng_.next_below(a.routers.size())],
                      b.routers[rng_.next_below(b.routers.size())],
                      make_link(rng_, 15.0, 50.0), true, a.asn, b.asn);
    }
  }

  // --- tier 2: regional transit -----------------------------------------
  std::map<geo::Region, std::vector<std::size_t>> tier2_by_region;
  for (const auto& [region, _] : kRegionShares) {
    for (int i = 0; i < params.tier2_per_region; ++i) {
      AsInfo& as = new_as(2, region);
      for (int r = 0; r < params.routers_per_tier2; ++r) add_router(as, params);
      for (std::size_t r = 0; r + 1 < as.routers.size(); ++r) {
        connect_routers(as.routers[r], as.routers[r + 1], make_link(rng_, 0.5, 2.5),
                        false, as.asn, as.asn);
      }
      // Uplinks into distinct tier-1 ASes.
      std::vector<std::size_t> uplinks = tier1;
      rng_.shuffle(uplinks);
      const auto n_up = std::min<std::size_t>(
          uplinks.size(), static_cast<std::size_t>(params.tier1_uplinks_per_tier2));
      for (std::size_t u = 0; u < n_up; ++u) {
        AsInfo& up = ases_[uplinks[u]];
        connect_routers(as.routers[rng_.next_below(as.routers.size())],
                        up.routers[rng_.next_below(up.routers.size())],
                        make_link(rng_, 8.0, 25.0), true, as.asn, up.asn);
      }
      tier2_by_region[region].push_back(as_index_[as.asn]);
    }
    // Occasional in-region peering between tier-2 networks.
    auto& regional = tier2_by_region[region];
    for (std::size_t i = 0; i < regional.size(); ++i) {
      for (std::size_t j = i + 1; j < regional.size(); ++j) {
        if (!rng_.bernoulli(params.tier2_peering_prob)) continue;
        AsInfo& a = ases_[regional[i]];
        AsInfo& b = ases_[regional[j]];
        connect_routers(a.routers[rng_.next_below(a.routers.size())],
                        b.routers[rng_.next_below(b.routers.size())],
                        make_link(rng_, 5.0, 15.0), true, a.asn, b.asn);
      }
    }
  }

  // --- tier 3: stub ASes, distributed per regional share ----------------
  std::vector<double> weights;
  for (const auto& [_, share] : kRegionShares) weights.push_back(share);
  std::vector<int> counts(std::size(kRegionShares), 1);  // at least 1 per region
  int assigned = static_cast<int>(std::size(kRegionShares));
  while (assigned < params.stub_count) {
    ++counts[rng_.weighted_index(weights)];
    ++assigned;
  }
  for (std::size_t ri = 0; ri < std::size(kRegionShares); ++ri) {
    const geo::Region region = kRegionShares[ri].region;
    for (int s = 0; s < counts[ri]; ++s) {
      AsInfo& as = new_as(3, region);
      for (int r = 0; r < params.routers_per_stub; ++r) add_router(as, params);
      for (std::size_t r = 0; r + 1 < as.routers.size(); ++r) {
        connect_routers(as.routers[r], as.routers[r + 1], make_link(rng_, 0.3, 2.0),
                        false, as.asn, as.asn);
      }
      auto& regional = tier2_by_region[region];
      std::vector<std::size_t> uplinks = regional;
      rng_.shuffle(uplinks);
      const auto n_up = std::min<std::size_t>(
          uplinks.size(), static_cast<std::size_t>(params.tier2_uplinks_per_stub));
      for (std::size_t u = 0; u < n_up; ++u) {
        AsInfo& up = ases_[uplinks[u]];
        connect_routers(as.routers[rng_.next_below(as.routers.size())],
                        up.routers[rng_.next_below(up.routers.size())],
                        make_link(rng_, 3.0, 12.0), true, as.asn, up.asn);
      }
    }
  }
}

const AsInfo& Internet::as_info(Asn asn) const {
  const auto it = as_index_.find(asn);
  if (it == as_index_.end()) throw std::out_of_range("unknown ASN");
  return ases_[it->second];
}

std::vector<Asn> Internet::stub_ases(geo::Region region) const {
  std::vector<Asn> out;
  for (const auto& as : ases_) {
    if (as.tier == 3 && as.region == region) out.push_back(as.asn);
  }
  return out;
}

std::vector<Asn> Internet::stub_ases() const {
  std::vector<Asn> out;
  for (const auto& as : ases_) {
    if (as.tier == 3) out.push_back(as.asn);
  }
  return out;
}

Internet::Attachment Internet::attach_host(Asn asn, std::unique_ptr<netsim::Host> host,
                                           const LinkParams& access) {
  const AsInfo& as = as_info(asn);
  if (as.routers.empty()) throw std::runtime_error("attach_host: AS has no routers");
  netsim::Host* raw = host.get();
  const NodeId host_id = net_.add_node(std::move(host));
  raw->set_address(allocate_address(asn));

  const NodeId router = as.routers[rng_.next_below(as.routers.size())];
  const auto [host_if, router_if] = net_.connect(host_id, router, access);

  Attachment attachment;
  attachment.host = host_id;
  attachment.router = router;
  attachment.router_if = router_if;
  attachment.host_if = host_if;
  attachment.asn = asn;
  attachments_[raw->address().value()] = attachment;
  return attachment;
}

const Internet::Attachment* Internet::attachment_of(wire::Ipv4Address host_addr) const {
  const auto it = attachments_.find(host_addr.value());
  return it == attachments_.end() ? nullptr : &it->second;
}

bool Internet::is_inter_as_interface(NodeId node, int if_index) const {
  const auto key =
      (static_cast<std::uint64_t>(node) << 32) | static_cast<std::uint32_t>(if_index);
  const auto it = inter_as_if_.find(key);
  return it != inter_as_if_.end() && it->second;
}

const std::vector<std::int32_t>& Internet::tree_toward(NodeId dest_router) {
  if (dest_router >= trees_.size()) trees_.resize(net_.node_count());
  std::vector<std::int32_t>& tree = trees_[dest_router];
  if (!tree.empty()) return tree;

  // BFS outward from the destination router. For each router reached from
  // `u` over an edge, the next hop toward the destination is the reverse
  // interface of that edge. adjacency_ stores, per node, (peer, if_on_node);
  // when expanding u via (v, if_u) we need v's interface back to u -- so the
  // relaxation iterates v's own adjacency entries instead.
  std::vector<std::int32_t> egress(net_.node_count(), kNoInterface);
  std::vector<char> visited(net_.node_count(), 0);
  std::vector<NodeId> frontier{dest_router};  // FIFO: frontier[head..] is queued
  visited[dest_router] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    if (u >= adjacency_.size()) continue;
    for (const auto& [v, if_u] : adjacency_[u]) {
      if (visited[v]) continue;
      // Down links are invisible to routing (links are symmetric, so
      // checking this side suffices).
      if (!net_.interface(u, if_u).up) continue;
      visited[v] = 1;
      // Find v's interface toward u.
      for (const auto& [w, if_v] : adjacency_[v]) {
        if (w == u) {
          egress[v] = if_v;
          break;
        }
      }
      frontier.push_back(v);
    }
  }
  tree = std::move(egress);
  return tree;
}

int Internet::route_oracle(NodeId at, wire::Ipv4Address dst) {
  NodeId dest_router = kInvalidNode;
  if (const Attachment* attachment = attachment_of(dst)) {
    if (at == attachment->router) return attachment->router_if;
    dest_router = attachment->router;
  } else {
    const NodeId node = net_.find_by_address(dst);
    if (node == kInvalidNode || !router_of_.contains(node)) return kNoInterface;
    dest_router = node;
  }
  const auto& tree = tree_toward(dest_router);
  if (at >= tree.size()) return kNoInterface;
  return tree[at];
}

}  // namespace ecnprobe::topology
