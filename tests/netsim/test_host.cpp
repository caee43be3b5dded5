#include "ecnprobe/netsim/host.hpp"

#include <gtest/gtest.h>

#include "mini_net.hpp"

namespace ecnprobe::netsim {
namespace {

using testutil::Chain;

TEST(Host, UdpSocketDemuxByPort) {
  Chain chain(1);
  auto sock_a = chain.host_b->open_udp(1000);
  auto sock_b = chain.host_b->open_udp(2000);
  int a_count = 0;
  int b_count = 0;
  sock_a->set_receive_handler([&](const UdpDelivery&) { ++a_count; });
  sock_b->set_receive_handler([&](const UdpDelivery&) { ++b_count; });

  auto client = chain.host_a->open_udp();
  client->send(chain.host_b->address(), 1000, {}, wire::Ecn::NotEct);
  client->send(chain.host_b->address(), 2000, {}, wire::Ecn::NotEct);
  client->send(chain.host_b->address(), 2000, {}, wire::Ecn::NotEct);
  chain.sim.run();
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 2);
}

TEST(Host, UnboundPortSilentlyDropsByDefault) {
  Chain chain(1);
  auto client = chain.host_a->open_udp();
  client->send(chain.host_b->address(), 3333, {}, wire::Ecn::NotEct);
  chain.sim.run();
  EXPECT_EQ(chain.host_b->stats().udp_no_socket, 1u);
}

TEST(Host, PortUnreachableWhenConfigured) {
  Simulator sim;
  Network net(sim, util::Rng(1));
  Host::Params params;
  params.udp_port_unreachable = true;
  auto a = std::make_unique<Host>("a", Host::Params{}, util::Rng(2));
  auto b = std::make_unique<Host>("b", params, util::Rng(3));
  Host* host_a = a.get();
  Host* host_b = b.get();
  const auto ida = net.add_node(std::move(a));
  const auto idb = net.add_node(std::move(b));
  host_a->set_address(wire::Ipv4Address(10, 0, 0, 1));
  host_b->set_address(wire::Ipv4Address(10, 0, 0, 2));
  net.connect(ida, idb, LinkParams{});

  bool got_icmp = false;
  host_a->set_protocol_handler(wire::IpProto::Icmp, [&](const wire::Datagram& d) {
    const auto decoded = wire::decode_icmp_message(d.payload);
    ASSERT_TRUE(decoded);
    EXPECT_EQ(decoded->message.type, wire::IcmpType::DestUnreachable);
    EXPECT_EQ(decoded->message.code,
              static_cast<std::uint8_t>(wire::IcmpUnreachCode::Port));
    got_icmp = true;
  });
  auto client = host_a->open_udp();
  client->send(host_b->address(), 4444, {}, wire::Ecn::NotEct);
  sim.run();
  EXPECT_TRUE(got_icmp);
}

TEST(Host, DuplicatePortBindThrows) {
  Chain chain(1);
  auto first = chain.host_b->open_udp(500);
  EXPECT_THROW(chain.host_b->open_udp(500), std::runtime_error);
  first->close();
  EXPECT_NO_THROW(chain.host_b->open_udp(500));  // released on close
}

TEST(Host, EphemeralPortsAreDistinct) {
  Chain chain(1);
  auto s1 = chain.host_a->open_udp();
  auto s2 = chain.host_a->open_udp();
  EXPECT_NE(s1->local_port(), s2->local_port());
  EXPECT_GE(s1->local_port(), 49152);
}

TEST(Host, ClosedSocketStopsReceiving) {
  Chain chain(1);
  auto sock = chain.host_b->open_udp(700);
  int count = 0;
  sock->set_receive_handler([&](const UdpDelivery&) { ++count; });
  auto client = chain.host_a->open_udp();
  client->send(chain.host_b->address(), 700, {}, wire::Ecn::NotEct);
  chain.sim.run();
  sock->close();
  client->send(chain.host_b->address(), 700, {}, wire::Ecn::NotEct);
  chain.sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Host, ClosingASocketReleasesItsHandler) {
  Chain chain(1);
  auto sentinel = std::make_shared<int>(0);
  auto sock = chain.host_b->open_udp(700);
  sock->set_receive_handler([sentinel](const UdpDelivery&) {});
  EXPECT_EQ(sentinel.use_count(), 2);
  sock->close();
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(chain.host_b->udp_socket_count(), 0u);
}

TEST(Host, CloseMayDestroyTheSocketsLastOwner) {
  // The handler holds the only reference to the socket's owner, and the
  // owner holds the only reference to the socket: close() ends both.
  Chain chain(1);
  struct Owner {
    std::shared_ptr<UdpSocket> socket;
  };
  auto owner = std::make_shared<Owner>();
  owner->socket = chain.host_b->open_udp(700);
  std::weak_ptr<UdpSocket> weak = owner->socket;
  UdpSocket* raw = owner->socket.get();
  raw->set_receive_handler([owner](const UdpDelivery&) {});
  owner.reset();
  raw->close();
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(chain.host_b->udp_socket_count(), 0u);
}

TEST(Host, HandlerMayCloseItsOwnSocket) {
  // The handler owns the socket that runs it: closing from inside the call
  // releases the handler, which must stay alive until the call returns.
  Chain chain(1);
  auto sentinel = std::make_shared<int>(0);
  auto sock = chain.host_b->open_udp(700);
  std::weak_ptr<UdpSocket> weak = sock;
  int count = 0;
  sock->set_receive_handler([sock, sentinel, &count](const UdpDelivery&) {
    ++count;
    sock->close();
    EXPECT_EQ(*sentinel, 0);  // captures still alive inside the call
  });
  sock.reset();
  auto client = chain.host_a->open_udp();
  client->send(chain.host_b->address(), 700, {}, wire::Ecn::NotEct);
  client->send(chain.host_b->address(), 700, {}, wire::Ecn::NotEct);
  chain.sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_TRUE(weak.expired());
}

TEST(Host, HandlerKeepsRunningOnAnOpenSocket) {
  Chain chain(1);
  auto sock = chain.host_b->open_udp(700);
  int count = 0;
  sock->set_receive_handler([&count](const UdpDelivery&) { ++count; });
  auto client = chain.host_a->open_udp();
  for (int i = 0; i < 3; ++i) client->send(chain.host_b->address(), 700, {}, wire::Ecn::NotEct);
  chain.sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Host, TeardownDetachesOpenSockets) {
  auto sentinel = std::make_shared<int>(0);
  std::shared_ptr<UdpSocket> sock;
  {
    Chain chain(1);
    sock = chain.host_b->open_udp(700);
    sock->set_receive_handler([sock, sentinel](const UdpDelivery&) {});
  }
  // The host is gone: its handler is released and the socket is inert.
  EXPECT_EQ(sentinel.use_count(), 1);
  sock->send(wire::Ipv4Address(10, 0, 0, 1), 700, {}, wire::Ecn::NotEct);
  sock->close();
  EXPECT_EQ(sock.use_count(), 1);
}

TEST(Host, BadUdpChecksumDropped) {
  // Craft a datagram with a deliberately corrupted UDP checksum and inject
  // it directly.
  Chain chain(0);  // host A -- host B directly? Chain(0) has no routers: A--B.
  auto sock = chain.host_b->open_udp(80);
  int count = 0;
  sock->set_receive_handler([&](const UdpDelivery&) { ++count; });
  auto d = wire::make_udp_datagram(chain.host_a->address(), chain.host_b->address(),
                                   1234, 80, {}, wire::Ecn::NotEct);
  d.payload[7] ^= 0xff;  // corrupt checksum byte
  chain.host_a->send_datagram(std::move(d));
  chain.sim.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(chain.host_b->stats().udp_bad_checksum, 1u);
}

TEST(Host, CaptureSeesBothDirectionsAndEcn) {
  Chain chain(1);
  PacketCapture capture;
  chain.host_a->add_capture(&capture);

  auto server = chain.host_b->open_udp(123);
  server->set_receive_handler([&](const UdpDelivery& d) {
    // Echo back.
    server->send(d.src, d.src_port, d.payload, wire::Ecn::NotEct);
  });
  auto client = chain.host_a->open_udp();
  client->send(chain.host_b->address(), 123, {}, wire::Ecn::Ect0);
  chain.sim.run();

  ASSERT_EQ(capture.packets().size(), 2u);
  EXPECT_EQ(capture.packets()[0].dir, Direction::Tx);
  EXPECT_EQ(capture.packets()[0].dgram.ip.ecn, wire::Ecn::Ect0);
  EXPECT_EQ(capture.packets()[1].dir, Direction::Rx);
  EXPECT_EQ(capture.packets()[1].dgram.ip.ecn, wire::Ecn::NotEct);
  chain.host_a->remove_capture(&capture);
}

TEST(Host, CaptureFilterRestricts) {
  Chain chain(1);
  PacketCapture capture(PacketCapture::udp_port_filter(123));
  chain.host_a->add_capture(&capture);
  auto client = chain.host_a->open_udp();
  client->send(chain.host_b->address(), 123, {}, wire::Ecn::NotEct);
  client->send(chain.host_b->address(), 9999, {}, wire::Ecn::NotEct);
  chain.sim.run();
  EXPECT_EQ(capture.packets().size(), 1u);
  chain.host_a->remove_capture(&capture);
}

}  // namespace
}  // namespace ecnprobe::netsim
