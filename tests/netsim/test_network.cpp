#include "ecnprobe/netsim/network.hpp"

#include <gtest/gtest.h>

#include "mini_net.hpp"

namespace ecnprobe::netsim {
namespace {

using namespace ecnprobe::util::literals;
using testutil::Chain;

TEST(Network, DeliversAcrossChainWithLinkDelay) {
  LinkParams link;
  link.delay = 2_ms;
  Chain chain(3, 1.0, link);
  auto socket_b = chain.host_b->open_udp(123);
  bool received = false;
  SimTime arrival;
  socket_b->set_receive_handler([&](const UdpDelivery& delivery) {
    received = true;
    arrival = chain.sim.now();
    EXPECT_EQ(delivery.src, chain.host_a->address());
    EXPECT_EQ(delivery.ecn, wire::Ecn::Ect0);
  });

  auto socket_a = chain.host_a->open_udp();
  const std::uint8_t payload[] = {1, 2, 3};
  socket_a->send(chain.host_b->address(), 123, payload, wire::Ecn::Ect0);
  chain.sim.run();
  ASSERT_TRUE(received);
  // 4 links x 2 ms each.
  EXPECT_EQ((arrival - SimTime::zero()).count_nanos(), (8_ms).count_nanos());
}

TEST(Network, LossyLinkDropsApproximatelyAtRate) {
  LinkParams link;
  link.loss_rate = 0.3;
  Chain chain(1, 1.0, link);
  auto socket_b = chain.host_b->open_udp(123);
  int received = 0;
  socket_b->set_receive_handler([&](const UdpDelivery&) { ++received; });
  auto socket_a = chain.host_a->open_udp();
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    socket_a->send(chain.host_b->address(), 123, {}, wire::Ecn::NotEct);
  }
  chain.sim.run();
  // Two lossy links in series: survival = 0.7^2 = 0.49.
  EXPECT_NEAR(static_cast<double>(received) / n, 0.49, 0.05);
  EXPECT_GT(chain.net.stats().dropped_loss, 0u);
}

TEST(Network, EgressPolicyAppliesBeforeDelivery) {
  Chain chain(1);
  auto policy = std::make_shared<EctUdpDropPolicy>();
  // Egress of the last router toward host B (interface 1).
  chain.net.add_egress_policy(chain.routers[0], 1, policy);

  auto socket_b = chain.host_b->open_udp(123);
  int received = 0;
  socket_b->set_receive_handler([&](const UdpDelivery&) { ++received; });
  auto socket_a = chain.host_a->open_udp();
  socket_a->send(chain.host_b->address(), 123, {}, wire::Ecn::Ect0);   // dropped
  socket_a->send(chain.host_b->address(), 123, {}, wire::Ecn::NotEct); // passes
  chain.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(policy->stats().dropped, 1u);
  EXPECT_EQ(chain.net.stats().dropped_policy, 1u);
}

TEST(Network, IngressPolicyAppliesAtReceiver) {
  Chain chain(1);
  // Ingress policy on host B's interface (0).
  chain.net.add_ingress_policy(chain.host_b_id, 0,
                               std::make_shared<EcnBleachPolicy>(1.0));
  auto socket_b = chain.host_b->open_udp(123);
  wire::Ecn seen = wire::Ecn::Ce;
  socket_b->set_receive_handler([&](const UdpDelivery& d) { seen = d.ecn; });
  auto socket_a = chain.host_a->open_udp();
  socket_a->send(chain.host_b->address(), 123, {}, wire::Ecn::Ect0);
  chain.sim.run();
  EXPECT_EQ(seen, wire::Ecn::NotEct);
}

TEST(Network, DownLinkDropsEverything) {
  Chain chain(1);
  chain.net.set_link_up(chain.host_a_id, 0, false);
  auto socket_b = chain.host_b->open_udp(123);
  int received = 0;
  socket_b->set_receive_handler([&](const UdpDelivery&) { ++received; });
  auto socket_a = chain.host_a->open_udp();
  socket_a->send(chain.host_b->address(), 123, {}, wire::Ecn::NotEct);
  chain.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(chain.net.stats().dropped_link_down, 1u);
}

TEST(Network, AddressDirectoryFindsNodes) {
  Chain chain(2);
  EXPECT_EQ(chain.net.find_by_address(chain.host_a->address()), chain.host_a_id);
  EXPECT_EQ(chain.net.find_by_address(wire::Ipv4Address(99, 9, 9, 9)), kInvalidNode);
}

TEST(Network, ConnectRejectsBadIds) {
  Simulator sim;
  Network net(sim, util::Rng(1));
  auto host = std::make_unique<Host>("h", Host::Params{}, util::Rng(2));
  const NodeId id = net.add_node(std::move(host));
  EXPECT_THROW(net.connect(id, id, LinkParams{}), std::invalid_argument);
  EXPECT_THROW(net.connect(id, 42, LinkParams{}), std::invalid_argument);
}

TEST(Network, IpIdMonotone) {
  Simulator sim;
  Network net(sim, util::Rng(1));
  const auto first = net.next_ip_id();
  EXPECT_EQ(net.next_ip_id(), static_cast<std::uint16_t>(first + 1));
}

// -- datapath tallies ----------------------------------------------------------
//
// The Network counts transmitted, delivered and duplicated packets only in
// stats(); the registry's net_packets_*_total counters catch up whenever
// the simulator publishes (run()/run_until() exit, publish_metrics()) and
// before set_observability() swaps the registry.

/// Duplicates every packet it passes: exercises the duplicated counter.
class DuplicateAll final : public PacketPolicy {
public:
  std::string name() const override { return "duplicate-all"; }
  bool take_duplicate() override { return true; }

protected:
  PolicyAction do_apply(wire::Datagram&, util::Rng&, util::SimTime) override {
    return PolicyAction::Pass;
  }
};

struct Tallies {
  std::uint64_t transmitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicated = 0;
  bool operator==(const Tallies&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Tallies& t) {
  return os << "{tx " << t.transmitted << ", delivered " << t.delivered << ", dup "
            << t.duplicated << "}";
}

Tallies published(obs::Observability& obs) {
  return {obs.registry.counter("net_packets_transmitted_total")->value(),
          obs.registry.counter("net_packets_delivered_total")->value(),
          obs.registry.counter("net_packets_duplicated_total")->value()};
}

Tallies tallied(const Network& net) {
  return {net.stats().packets_transmitted, net.stats().delivered, net.stats().duplicated};
}

/// A two-router chain whose host B echoes every datagram on port 7 and
/// whose host A duplicates everything it sends.
struct TallyChain {
  obs::Observability obs;
  Chain chain{2};
  std::shared_ptr<UdpSocket> echo = chain.host_b->open_udp(7);
  std::shared_ptr<UdpSocket> client = chain.host_a->open_udp();

  TallyChain() {
    chain.net.set_observability(&obs);
    chain.net.add_egress_policy(chain.host_a_id, 0, std::make_shared<DuplicateAll>());
    echo->set_receive_handler([this](const UdpDelivery& d) {
      echo->send(d.src, d.src_port, d.payload, wire::Ecn::NotEct);
    });
  }

  void send(int n = 1) {
    for (int i = 0; i < n; ++i) {
      client->send(chain.host_b->address(), 7, {}, wire::Ecn::Ect0);
    }
  }
};

TEST(NetworkTallies, RunRunLimitAndRunUntilPublishOnReturn) {
  TallyChain t;
  t.send(3);
  EXPECT_EQ(published(t.obs), Tallies{}) << "sends outside a run stay local";
  t.chain.sim.run(4);
  EXPECT_EQ(published(t.obs), tallied(t.chain.net));
  t.chain.sim.run_until(SimTime::zero() + 3_ms);
  EXPECT_EQ(published(t.obs), tallied(t.chain.net));
  t.chain.sim.run();
  const Tallies done = tallied(t.chain.net);
  EXPECT_EQ(published(t.obs), done);
  EXPECT_GT(done.duplicated, 0u);
  EXPECT_GT(done.delivered, done.duplicated);
  t.chain.sim.run();  // nothing new: publishing again adds nothing
  EXPECT_EQ(published(t.obs), done);
}

TEST(NetworkTallies, IdleCallbackSeesEveryHopAfterPublishMetrics) {
  TallyChain t;
  t.send(2);
  bool checked = false;
  t.chain.sim.schedule_when_idle([&] {
    // A mid-run reader (the sequential executor's trace commit) publishes
    // before it snapshots.
    t.chain.sim.publish_metrics();
    EXPECT_EQ(published(t.obs), tallied(t.chain.net));
    checked = true;
    t.send(2);
  });
  t.chain.sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(published(t.obs), tallied(t.chain.net));
}

TEST(NetworkTallies, ThrowingCallbackStillPublishes) {
  TallyChain t;
  t.echo->set_receive_handler([](const UdpDelivery&) { throw std::runtime_error("boom"); });
  t.send(1);
  EXPECT_THROW(t.chain.sim.run(), std::runtime_error);
  EXPECT_GT(tallied(t.chain.net).delivered, 0u);
  EXPECT_EQ(published(t.obs), tallied(t.chain.net));
  t.chain.sim.clear_pending();
}

TEST(NetworkTallies, SwappingObservabilityLeavesEarlierCountsInTheOldRegistry) {
  obs::Observability next;  // outlives the network that reports into it
  TallyChain t;
  t.send(2);
  t.chain.sim.run();
  t.send(1);  // tallied, not yet published
  const Tallies before_swap = tallied(t.chain.net);
  t.chain.net.set_observability(&next);
  EXPECT_EQ(published(t.obs), before_swap);
  EXPECT_EQ(published(next), Tallies{});
  t.chain.sim.run();
  const Tallies after = tallied(t.chain.net);
  EXPECT_EQ(published(t.obs), before_swap) << "the old registry stops counting";
  EXPECT_EQ(published(next).transmitted, after.transmitted - before_swap.transmitted);
  EXPECT_EQ(published(next).delivered, after.delivered - before_swap.delivered);
  EXPECT_EQ(published(next).duplicated, after.duplicated - before_swap.duplicated);
}

TEST(NetworkTallies, NetworkDestroyedBeforeSimulatorUnregisters) {
  Simulator sim;
  obs::Observability obs;
  {
    Network net(sim, util::Rng(1));
    net.set_observability(&obs);
  }
  // A dangling publisher would be called here (and trip ASan).
  sim.publish_metrics();
  sim.schedule(1_ms, [] {});
  EXPECT_EQ(sim.run(), 1u);
  Network next(sim, util::Rng(2));
  next.set_observability(&obs);
  sim.publish_metrics();
  EXPECT_EQ(published(obs), Tallies{});
}

}  // namespace
}  // namespace ecnprobe::netsim
