#include "ecnprobe/wire/ipv4.hpp"

#include <gtest/gtest.h>

#include "ecnprobe/wire/bytes.hpp"

namespace ecnprobe::wire {
namespace {

TEST(Ipv4Address, ParseValid) {
  const auto addr = Ipv4Address::parse("192.168.1.200");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->value(), 0xc0a801c8u);
  EXPECT_EQ(addr->to_string(), "192.168.1.200");
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  for (const char* bad : {"1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3",
                          "1.2.3.-4", "", "1.2.3.1000"}) {
    EXPECT_FALSE(Ipv4Address::parse(bad)) << bad;
  }
}

TEST(Ipv4Address, RoundTripsAllOctetBoundaries) {
  for (const char* s : {"0.0.0.0", "255.255.255.255", "1.0.0.1", "10.255.0.128",
                        "9.99.100.109"}) {
    const auto addr = Ipv4Address::parse(s);
    ASSERT_TRUE(addr);
    EXPECT_EQ(addr->to_string(), s);
    std::string appended = "x";
    addr->append_to(appended);
    EXPECT_EQ(appended, std::string("x") + s);
  }
}

TEST(Ipv4Address, PrefixMatching) {
  const Ipv4Address addr(10, 1, 2, 3);
  EXPECT_TRUE(addr.in_prefix(Ipv4Address(10, 1, 0, 0), 16));
  EXPECT_FALSE(addr.in_prefix(Ipv4Address(10, 2, 0, 0), 16));
  EXPECT_TRUE(addr.in_prefix(Ipv4Address(0, 0, 0, 0), 0));
  EXPECT_TRUE(addr.in_prefix(addr, 32));
  EXPECT_FALSE(addr.in_prefix(Ipv4Address(10, 1, 2, 4), 32));
}

TEST(Ipv4Header, EncodeDecodeRoundTrip) {
  Ipv4Header h;
  h.dscp = 0x0a;
  h.ecn = Ecn::Ect0;
  h.total_length = 60;
  h.identification = 0xbeef;
  h.ttl = 17;
  h.protocol = IpProto::Udp;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(11, 22, 33, 44);

  ByteWriter out;
  h.encode(out);
  ASSERT_EQ(out.size(), Ipv4Header::kSize);

  const auto decoded = decode_ipv4_header(out.view());
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->checksum_ok);
  EXPECT_EQ(decoded->header_len, Ipv4Header::kSize);
  const Ipv4Header& r = decoded->header;
  EXPECT_EQ(r.dscp, h.dscp);
  EXPECT_EQ(r.ecn, Ecn::Ect0);
  EXPECT_EQ(r.total_length, 60);
  EXPECT_EQ(r.identification, 0xbeef);
  EXPECT_EQ(r.ttl, 17);
  EXPECT_EQ(r.protocol, IpProto::Udp);
  EXPECT_EQ(r.src, h.src);
  EXPECT_EQ(r.dst, h.dst);
}

TEST(Ipv4Header, CorruptionBreaksChecksum) {
  Ipv4Header h;
  h.total_length = 20;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  ByteWriter out;
  h.encode(out);
  auto bytes = out.take();
  bytes[8] ^= 0xff;  // flip TTL
  const auto decoded = decode_ipv4_header(bytes);
  ASSERT_TRUE(decoded);
  EXPECT_FALSE(decoded->checksum_ok);
}

TEST(Ipv4Header, DecodeRejectsTruncatedAndNonIpv4) {
  const std::uint8_t short_buf[10] = {0x45};
  EXPECT_FALSE(decode_ipv4_header(std::span<const std::uint8_t>(short_buf, 10)));
  std::uint8_t v6[20] = {0x60};
  EXPECT_FALSE(decode_ipv4_header(v6));
  std::uint8_t bad_ihl[20] = {0x41};  // IHL = 4 words < 5
  EXPECT_FALSE(decode_ipv4_header(bad_ihl));
}

TEST(Ipv4Header, TosOctetPacksDscpAndEcn) {
  Ipv4Header h;
  h.dscp = 0b101010;
  h.ecn = Ecn::Ce;
  EXPECT_EQ(h.tos_octet(), 0b10101011);
}

// All four ECN codepoints survive the wire round trip (the field the whole
// study depends on).
class EcnRoundTrip : public ::testing::TestWithParam<Ecn> {};

TEST_P(EcnRoundTrip, Preserved) {
  Ipv4Header h;
  h.ecn = GetParam();
  h.total_length = 20;
  ByteWriter out;
  h.encode(out);
  const auto decoded = decode_ipv4_header(out.view());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->header.ecn, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllCodepoints, EcnRoundTrip,
                         ::testing::Values(Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce));

TEST(Ecn, Predicates) {
  EXPECT_FALSE(is_ect(Ecn::NotEct));
  EXPECT_TRUE(is_ect(Ecn::Ect0));
  EXPECT_TRUE(is_ect(Ecn::Ect1));
  EXPECT_TRUE(is_ect(Ecn::Ce));
  EXPECT_TRUE(is_ect_codepoint(Ecn::Ect0));
  EXPECT_FALSE(is_ect_codepoint(Ecn::Ce));
  EXPECT_EQ(ecn_from_bits(0b10), Ecn::Ect0);
  EXPECT_EQ(to_string(Ecn::Ect0), "ECT(0)");
}

}  // namespace
}  // namespace ecnprobe::wire
