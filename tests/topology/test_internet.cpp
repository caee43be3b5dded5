#include "ecnprobe/topology/internet.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

namespace ecnprobe::topology {
namespace {

TopologyParams small_params() {
  TopologyParams p;
  p.tier1_count = 3;
  p.tier2_per_region = 2;
  p.stub_count = 18;
  p.routers_per_tier1 = 3;
  p.routers_per_tier2 = 2;
  p.routers_per_stub = 2;
  p.icmp_response_prob_min = 1.0;
  p.icmp_response_prob_max = 1.0;
  return p;
}

class InternetTest : public ::testing::Test {
protected:
  void SetUp() override {
    internet = Internet::build(sim, small_params(), util::Rng(7));
  }
  netsim::Simulator sim;
  std::unique_ptr<Internet> internet;
};

TEST_F(InternetTest, BuildsExpectedAsCounts) {
  int tier1 = 0;
  int tier2 = 0;
  int stubs = 0;
  for (const auto& as : internet->ases()) {
    if (as.tier == 1) ++tier1;
    else if (as.tier == 2) ++tier2;
    else ++stubs;
  }
  EXPECT_EQ(tier1, 3);
  EXPECT_EQ(tier2, 2 * 6);  // per region x 6 regions
  EXPECT_EQ(stubs, 18);
}

TEST_F(InternetTest, EveryRegionHasAtLeastOneStub) {
  for (const auto region :
       {geo::Region::Europe, geo::Region::NorthAmerica, geo::Region::Asia,
        geo::Region::Australia, geo::Region::SouthAmerica, geo::Region::Africa}) {
    EXPECT_FALSE(internet->stub_ases(region).empty()) << geo::to_string(region);
  }
}

TEST_F(InternetTest, AddressesMapToOwningAs) {
  for (const auto& as : internet->ases()) {
    for (const auto router : as.routers) {
      const auto addr = internet->net().node(router).address();
      EXPECT_EQ(internet->asn_of(addr), as.asn);
    }
  }
}

TEST_F(InternetTest, HostsAttachAndGetRoutableAddresses) {
  const auto stubs = internet->stub_ases(geo::Region::Europe);
  ASSERT_FALSE(stubs.empty());
  auto host = std::make_unique<netsim::Host>("h", netsim::Host::Params{}, util::Rng(1));
  netsim::Host* raw = host.get();
  const auto attachment =
      internet->attach_host(stubs[0], std::move(host), netsim::LinkParams{});
  EXPECT_NE(attachment.host, netsim::kInvalidNode);
  EXPECT_FALSE(raw->address().is_unspecified());
  EXPECT_EQ(internet->asn_of(raw->address()), stubs[0]);
  EXPECT_NE(internet->attachment_of(raw->address()), nullptr);
}

TEST_F(InternetTest, EndToEndDeliveryAcrossRegions) {
  // Attach one host in Europe and one in Australia and exchange a packet.
  auto h1 = std::make_unique<netsim::Host>("eu", netsim::Host::Params{}, util::Rng(1));
  auto h2 = std::make_unique<netsim::Host>("au", netsim::Host::Params{}, util::Rng(2));
  netsim::Host* eu = h1.get();
  netsim::Host* au = h2.get();
  internet->attach_host(internet->stub_ases(geo::Region::Europe)[0], std::move(h1),
                        netsim::LinkParams{});
  internet->attach_host(internet->stub_ases(geo::Region::Australia)[0], std::move(h2),
                        netsim::LinkParams{});

  auto server = au->open_udp(123);
  bool received = false;
  server->set_receive_handler([&](const netsim::UdpDelivery& d) {
    received = true;
    server->send(d.src, d.src_port, d.payload, wire::Ecn::NotEct);
  });
  auto client = eu->open_udp();
  bool replied = false;
  client->set_receive_handler([&](const netsim::UdpDelivery&) { replied = true; });
  client->send(au->address(), 123, {}, wire::Ecn::Ect0);
  sim.run();
  EXPECT_TRUE(received);
  EXPECT_TRUE(replied);
}

TEST_F(InternetTest, EcnMarkSurvivesCleanPath) {
  auto h1 = std::make_unique<netsim::Host>("a", netsim::Host::Params{}, util::Rng(3));
  auto h2 = std::make_unique<netsim::Host>("b", netsim::Host::Params{}, util::Rng(4));
  netsim::Host* a = h1.get();
  netsim::Host* b = h2.get();
  internet->attach_host(internet->stub_ases(geo::Region::Asia)[0], std::move(h1),
                        netsim::LinkParams{});
  internet->attach_host(internet->stub_ases(geo::Region::NorthAmerica)[0], std::move(h2),
                        netsim::LinkParams{});
  auto server = b->open_udp(123);
  wire::Ecn seen = wire::Ecn::NotEct;
  server->set_receive_handler([&](const netsim::UdpDelivery& d) { seen = d.ecn; });
  auto client = a->open_udp();
  client->send(b->address(), 123, {}, wire::Ecn::Ect0);
  sim.run();
  // No bleachers installed by the bare topology: the mark must survive.
  EXPECT_EQ(seen, wire::Ecn::Ect0);
}

TEST_F(InternetTest, InterAsLinksAreGroundTruthBoundaries) {
  ASSERT_FALSE(internet->inter_as_links().empty());
  for (const auto& link : internet->inter_as_links()) {
    EXPECT_NE(link.asn_a, link.asn_b);
    EXPECT_TRUE(internet->is_inter_as_interface(link.a.node, link.a.if_index));
    EXPECT_TRUE(internet->is_inter_as_interface(link.b.node, link.b.if_index));
  }
  for (const auto& iface : internet->intra_as_interfaces()) {
    EXPECT_FALSE(internet->is_inter_as_interface(iface.node, iface.if_index));
  }
}

TEST_F(InternetTest, RouterAddressesAreUnique) {
  std::set<std::uint32_t> seen;
  for (const auto& as : internet->ases()) {
    for (const auto router : as.routers) {
      const auto addr = internet->net().node(router).address().value();
      EXPECT_TRUE(seen.insert(addr).second) << "duplicate router address";
    }
  }
}

TEST_F(InternetTest, DeterministicForSameSeed) {
  netsim::Simulator sim2;
  auto other = Internet::build(sim2, small_params(), util::Rng(7));
  ASSERT_EQ(other->ases().size(), internet->ases().size());
  for (std::size_t i = 0; i < other->ases().size(); ++i) {
    EXPECT_EQ(other->ases()[i].asn, internet->ases()[i].asn);
    EXPECT_EQ(other->ases()[i].prefix.value(), internet->ases()[i].prefix.value());
    EXPECT_EQ(other->ases()[i].routers.size(), internet->ases()[i].routers.size());
  }
  EXPECT_EQ(other->inter_as_links().size(), internet->inter_as_links().size());
}

TEST_F(InternetTest, ReroutesAroundDownLinksAfterInvalidation) {
  // A dual-homed stub must stay reachable when one uplink dies, once the
  // cached trees are invalidated.
  const auto stubs = internet->stub_ases(geo::Region::Europe);
  ASSERT_FALSE(stubs.empty());
  const auto asn = stubs[0];
  auto host = std::make_unique<netsim::Host>("h", netsim::Host::Params{}, util::Rng(9));
  netsim::Host* server_host = host.get();
  internet->attach_host(asn, std::move(host), netsim::LinkParams{});
  auto client_owned =
      std::make_unique<netsim::Host>("c", netsim::Host::Params{}, util::Rng(10));
  netsim::Host* client_host = client_owned.get();
  internet->attach_host(internet->stub_ases(geo::Region::Asia)[0],
                        std::move(client_owned), netsim::LinkParams{});

  auto server = server_host->open_udp(7);
  int received = 0;
  server->set_receive_handler([&](const netsim::UdpDelivery&) { ++received; });
  auto client = client_host->open_udp();

  client->send(server_host->address(), 7, {}, wire::Ecn::NotEct);
  sim.run();
  ASSERT_EQ(received, 1);

  // Find the stub's uplinks and kill them one at a time.
  std::vector<const InterAsLink*> uplinks;
  for (const auto& link : internet->inter_as_links()) {
    if (link.asn_a == asn || link.asn_b == asn) uplinks.push_back(&link);
  }
  ASSERT_GE(uplinks.size(), 2u);
  internet->net().set_link_up(uplinks[0]->a.node, uplinks[0]->a.if_index, false);
  internet->invalidate_routes();
  client->send(server_host->address(), 7, {}, wire::Ecn::NotEct);
  sim.run();
  EXPECT_EQ(received, 2);  // rerouted over the surviving uplink

  // Restore and verify the original path works again too.
  internet->net().set_link_up(uplinks[0]->a.node, uplinks[0]->a.if_index, true);
  internet->invalidate_routes();
  client->send(server_host->address(), 7, {}, wire::Ecn::NotEct);
  sim.run();
  EXPECT_EQ(received, 3);
}

/// Reference next hop from router `at` toward router `dest`, computed from
/// the Network's public interface table: a BFS outward from `dest` over up
/// router-to-router links, neighbours in interface order, each router's
/// egress being its first interface toward the router it was reached from.
int reference_next_hop(const Internet& internet, netsim::Network& net, netsim::NodeId at,
                       netsim::NodeId dest) {
  const auto is_router = [&](netsim::NodeId n) {
    return internet.asn_of_router(n).has_value();
  };
  std::vector<int> egress(net.node_count(), netsim::kNoInterface);
  std::vector<char> visited(net.node_count(), 0);
  std::deque<netsim::NodeId> frontier{dest};
  visited[dest] = 1;
  while (!frontier.empty()) {
    const netsim::NodeId u = frontier.front();
    frontier.pop_front();
    for (std::size_t i = 0; i < net.interface_count(u); ++i) {
      const auto& iface = net.interface(u, static_cast<int>(i));
      const netsim::NodeId v = iface.peer;
      if (!is_router(v) || visited[v] || !iface.up) continue;
      visited[v] = 1;
      for (std::size_t j = 0; j < net.interface_count(v); ++j) {
        if (net.interface(v, static_cast<int>(j)).peer == u) {
          egress[v] = static_cast<int>(j);
          break;
        }
      }
      frontier.push_back(v);
    }
  }
  return egress[at];
}

TEST_F(InternetTest, RouteMatchesReferenceBfsForEveryRouterAndAddress) {
  // One host on every stub AS, then every (router, destination) pair:
  // host addresses route to the attachment router (and from it down the
  // access link), router addresses to the router itself.
  std::vector<std::pair<wire::Ipv4Address, Internet::Attachment>> hosts;
  for (const auto asn : internet->stub_ases()) {
    auto host = std::make_unique<netsim::Host>("h" + std::to_string(asn),
                                               netsim::Host::Params{}, util::Rng(asn));
    netsim::Host* raw = host.get();
    const auto attachment = internet->attach_host(asn, std::move(host), netsim::LinkParams{});
    hosts.emplace_back(raw->address(), attachment);
  }
  std::vector<netsim::NodeId> routers;
  for (const auto& as : internet->ases()) {
    routers.insert(routers.end(), as.routers.begin(), as.routers.end());
  }
  auto& net = internet->net();
  const auto check_all = [&] {
    for (const auto at : routers) {
      for (const auto& [address, attachment] : hosts) {
        const int expected = at == attachment.router
                                 ? attachment.router_if
                                 : reference_next_hop(*internet, net, at, attachment.router);
        ASSERT_EQ(net.route(at, address), expected)
            << "at " << at << " to host " << address.to_string();
      }
      for (const auto dest : routers) {
        ASSERT_EQ(net.route(at, net.node(dest).address()),
                  reference_next_hop(*internet, net, at, dest))
            << "at " << at << " to router " << dest;
      }
      EXPECT_EQ(net.route(at, *wire::Ipv4Address::parse("203.0.113.7")), netsim::kNoInterface);
    }
  };
  check_all();

  // Cut one uplink of a dual-homed stub: until the trees are invalidated
  // the cached route still points down it; afterwards every pair matches
  // the reference over the surviving links again.
  const auto& [address, attachment] = hosts.front();
  const InterAsLink* cut = nullptr;
  for (const auto& link : internet->inter_as_links()) {
    if (link.asn_a == attachment.asn || link.asn_b == attachment.asn) {
      cut = &link;
      break;
    }
  }
  ASSERT_NE(cut, nullptr);
  const InterfaceRef far = cut->asn_a == attachment.asn ? cut->b : cut->a;
  const int before = net.route(far.node, address);
  EXPECT_EQ(before, far.if_index) << "the far end routes over the link being cut";
  net.set_link_up(far.node, far.if_index, false);
  EXPECT_EQ(net.route(far.node, address), before) << "cached until invalidated";
  internet->invalidate_routes();
  EXPECT_NE(net.route(far.node, address), before);
  EXPECT_NE(net.route(far.node, address), netsim::kNoInterface);
  check_all();
}

TEST_F(InternetTest, RouteTablesSpanRoutersOnlyAndStayLazy) {
  std::vector<std::pair<wire::Ipv4Address, Internet::Attachment>> hosts;
  for (const auto asn : internet->stub_ases()) {
    auto host = std::make_unique<netsim::Host>("h" + std::to_string(asn),
                                               netsim::Host::Params{}, util::Rng(asn));
    netsim::Host* raw = host.get();
    const auto attachment = internet->attach_host(asn, std::move(host), netsim::LinkParams{});
    hosts.emplace_back(raw->address(), attachment);
  }
  EXPECT_EQ(internet->route_table_bytes(), 0u) << "no row is built before it is asked for";

  auto& net = internet->net();
  const std::size_t routers = internet->router_count();
  ASSERT_LT(routers, net.node_count());  // hosts are nodes too, but never route
  for (netsim::NodeId at = 0; at < routers; ++at) {
    for (const auto& [address, attachment] : hosts) net.route(at, address);
  }
  EXPECT_GT(internet->route_table_bytes(), 0u);
  EXPECT_LE(internet->route_table_bytes(), routers * routers * sizeof(std::int16_t));
  // Toward every router as well: one row per router, one entry per router.
  for (netsim::NodeId at = 0; at < routers; ++at) {
    for (netsim::NodeId dest = 0; dest < routers; ++dest) {
      net.route(at, net.node(dest).address());
    }
  }
  EXPECT_EQ(internet->route_table_bytes(), routers * routers * sizeof(std::int16_t));

  // Hosts have no next-hop entry, toward hosts or routers alike.
  for (const auto& [address, attachment] : hosts) {
    EXPECT_EQ(net.route(attachment.host, hosts.back().first), netsim::kNoInterface);
    EXPECT_EQ(net.route(attachment.host, net.node(attachment.router).address()),
              netsim::kNoInterface);
  }

  internet->invalidate_routes();
  EXPECT_EQ(internet->route_table_bytes(), 0u);
}

}  // namespace
}  // namespace ecnprobe::topology
