// Drop-attribution ledger tests on crafted mini-nets: each middlebox or
// failure mode must count exactly one ledger drop or rewrite with the right
// layer and cause, and the flight recorder must name the hop -- the
// properties that let the loss-autopsy table explain every failed probe.
#include "ecnprobe/obs/ledger.hpp"

#include <gtest/gtest.h>

#include "../netsim/mini_net.hpp"
#include "ecnprobe/netsim/policy.hpp"
#include "ecnprobe/obs/export.hpp"

namespace ecnprobe::obs {
namespace {

using netsim::testutil::Chain;

// A chain with a test-private Observability, so records from other tests
// (or the process-wide default) can't leak in. Every send is a recorded
// flight, so drops and rewrites on the path leave events naming the hop.
struct ObservedChain : Chain {
  Observability obs;
  explicit ObservedChain(int n_routers) : Chain(n_routers) {
    net.set_observability(&obs);
    obs.recorder.arm(256);
  }
  void send_udp(wire::Ecn ecn, std::uint16_t port = 123,
                std::uint8_t ttl = wire::Ipv4Header::kDefaultTtl) {
    auto socket = host_a->open_udp();
    obs.recorder.begin_flight(/*retransmit=*/false);
    socket->send(host_b->address(), port, {}, ecn, ttl);
    sim.run();
  }
  std::uint64_t drops(Layer layer, DropCause cause) const {
    return obs.ledger.counts()
        .drops[static_cast<std::size_t>(layer)][static_cast<std::size_t>(cause)];
  }
  std::uint64_t rewrites(Layer layer, RewriteCause cause) const {
    return obs.ledger.counts()
        .rewrites[static_cast<std::size_t>(layer)][static_cast<std::size_t>(cause)];
  }
  std::vector<FlightEvent> events(SpanEvent type) const {
    std::vector<FlightEvent> out;
    for (auto& event : obs.recorder.collect_since(0)) {
      if (event.type == type) out.push_back(std::move(event));
    }
    return out;
  }
};

TEST(DropAttribution, GreylistDropIsAttributedToPolicyLayer) {
  ObservedChain chain(2);
  netsim::GreylistUdpPolicy::Params params;
  params.flaky_prob = 0.0;
  params.dead_prob = 1.0;  // wedged firewall: every UDP packet greylisted
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::GreylistUdpPolicy>(params));
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::NotEct);

  const auto ledger = chain.obs.ledger.delta_since();
  EXPECT_EQ(ledger.total_drops(), 1u);
  EXPECT_EQ(chain.drops(Layer::Policy, DropCause::Greylist), 1u);
  EXPECT_EQ(ledger.total_rewrites(), 0u);
  const auto dropped = chain.events(SpanEvent::PolicyDrop);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].layer, Layer::Policy);
  EXPECT_EQ(dropped[0].node, "r1");
  EXPECT_EQ(dropped[0].detail, "greylist");
}

TEST(DropAttribution, CongestionCeMarkIsOneRewriteRecord) {
  ObservedChain chain(2);
  // RFC 3168 AQM: always mark, never drop -- the packet survives but its
  // codepoint changes, which is a rewrite record, not a drop.
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::CongestionPolicy>(1.0, 0.0));
  auto receiver = chain.host_b->open_udp(123);
  wire::Ecn seen = wire::Ecn::NotEct;
  receiver->set_receive_handler(
      [&](const netsim::UdpDelivery& d) { seen = d.ecn; });
  chain.send_udp(wire::Ecn::Ect0);

  EXPECT_EQ(seen, wire::Ecn::Ce);
  const auto ledger = chain.obs.ledger.delta_since();
  EXPECT_EQ(ledger.total_drops(), 0u);
  EXPECT_EQ(ledger.total_rewrites(), 1u);
  EXPECT_EQ(chain.rewrites(Layer::Policy, RewriteCause::CeMarked), 1u);
  EXPECT_TRUE(chain.events(SpanEvent::PolicyDrop).empty());
  const auto rewritten = chain.events(SpanEvent::EcnRewritten);
  ASSERT_EQ(rewritten.size(), 1u);
  EXPECT_EQ(rewritten[0].layer, Layer::Policy);
  EXPECT_EQ(rewritten[0].node, "r0");
}

TEST(DropAttribution, BleachingHopIsOneRewriteRecord) {
  ObservedChain chain(3);
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::EcnBleachPolicy>(1.0));
  auto receiver = chain.host_b->open_udp(123);
  wire::Ecn seen = wire::Ecn::Ce;
  receiver->set_receive_handler(
      [&](const netsim::UdpDelivery& d) { seen = d.ecn; });
  chain.send_udp(wire::Ecn::Ect0);

  EXPECT_EQ(seen, wire::Ecn::NotEct);
  EXPECT_EQ(chain.obs.ledger.delta_since().total_rewrites(), 1u);
  EXPECT_EQ(chain.rewrites(Layer::Policy, RewriteCause::Bleached), 1u);
  const auto rewritten = chain.events(SpanEvent::EcnRewritten);
  ASSERT_EQ(rewritten.size(), 1u);
  EXPECT_EQ(rewritten[0].node, "r1");
}

TEST(DropAttribution, TtlExpiryIsAttributedToTheExpiringRouter) {
  ObservedChain chain(4);
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::NotEct, 123, /*ttl=*/2);

  EXPECT_EQ(chain.obs.ledger.delta_since().total_drops(), 1u);
  EXPECT_EQ(chain.drops(Layer::Router, DropCause::TtlExpired), 1u);
  const auto dropped = chain.events(SpanEvent::PolicyDrop);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].layer, Layer::Router);
  EXPECT_EQ(dropped[0].node, "r1");  // ttl=2 survives r0, expires at r1
}

TEST(DropAttribution, EctUdpFirewallAndTosFilterCausesAreDistinct) {
  ObservedChain chain(2);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EctUdpDropPolicy>());
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::Ect0);
  EXPECT_EQ(chain.obs.ledger.delta_since().total_drops(), 1u);
  EXPECT_EQ(chain.drops(Layer::Policy, DropCause::EctUdpFilter), 1u);

  ObservedChain tos_chain(2);
  tos_chain.net.add_egress_policy(tos_chain.host_a_id, 0,
                                  std::make_shared<netsim::TosSensitiveDropPolicy>(1.0));
  auto tos_receiver = tos_chain.host_b->open_udp(123);
  tos_chain.send_udp(wire::Ecn::Ect0);
  EXPECT_EQ(tos_chain.obs.ledger.delta_since().total_drops(), 1u);
  EXPECT_EQ(tos_chain.drops(Layer::Policy, DropCause::TosFilter), 1u);
  const auto dropped = tos_chain.events(SpanEvent::PolicyDrop);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].node, "hostA");
}

TEST(DropAttribution, NoSocketDeliveryIsAHostLayerDrop) {
  ObservedChain chain(1);
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);  // nobody listening
  EXPECT_EQ(chain.obs.ledger.delta_since().total_drops(), 1u);
  EXPECT_EQ(chain.drops(Layer::Host, DropCause::NoSocket), 1u);
  // The flight reached hostB (nothing on the path dropped it), and hostB is
  // the host that found no socket.
  EXPECT_TRUE(chain.events(SpanEvent::PolicyDrop).empty());
  EXPECT_EQ(chain.host_b->stats().udp_no_socket, 1u);
  EXPECT_EQ(chain.host_a->stats().udp_no_socket, 0u);
}

TEST(DropAttribution, TraceIndexStampsRecords) {
  ObservedChain chain(2);
  chain.obs.recorder.set_trace(7);
  chain.send_udp(wire::Ecn::NotEct, 123, /*ttl=*/1);  // expires at r0
  EXPECT_EQ(chain.drops(Layer::Router, DropCause::TtlExpired), 1u);
  const auto dropped = chain.events(SpanEvent::PolicyDrop);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].key.trace, 7);
  EXPECT_EQ(dropped[0].node, "r0");
}

TEST(DropAttribution, RecordsMirrorIntoCounterFamilies) {
  ObservedChain chain(2);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EcnBleachPolicy>(1.0));
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::Ect0);
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);

  const auto snap = chain.obs.registry.snapshot();
  ASSERT_TRUE(snap.families.contains("ecn_rewrites_total"));
  ASSERT_TRUE(snap.families.contains("ecn_drops_total"));
  const LabelSet bleach{{"cause", "bleached"}, {"layer", "policy"}};
  EXPECT_EQ(snap.families.at("ecn_rewrites_total").samples.at(bleach).counter, 1u);
  const LabelSet nosock{{"cause", "no-socket"}, {"layer", "host"}};
  EXPECT_EQ(snap.families.at("ecn_drops_total").samples.at(nosock).counter, 1u);
}

TEST(DropAttribution, AggregateSlicesAndAutopsyTotalsReconcile) {
  ObservedChain chain(2);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EctUdpDropPolicy>());
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::Ect0);   // dropped by the firewall
  const auto mark = chain.obs.ledger.counts();
  chain.send_udp(wire::Ecn::Ect1);   // dropped again, second slice
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);  // host-layer drop

  const auto full = chain.obs.ledger.delta_since();
  EXPECT_EQ(full.total_drops(), 3u);
  EXPECT_EQ(full.drops_for_cause("ect-udp-filter"), 2u);

  const auto tail = chain.obs.ledger.delta_since(mark);
  EXPECT_EQ(tail.total_drops(), 2u);
  EXPECT_EQ(tail.drops_for_cause("ect-udp-filter"), 1u);

  const auto autopsy = render_loss_autopsy(full);
  EXPECT_NE(autopsy.find("ect-udp-filter"), std::string::npos);
  EXPECT_NE(autopsy.find("no-socket"), std::string::npos);
  EXPECT_NE(autopsy.find("total"), std::string::npos);
}

}  // namespace
}  // namespace ecnprobe::obs
