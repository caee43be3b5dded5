#include <gtest/gtest.h>

#include <sstream>

#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/util/table.hpp"

namespace ecnprobe::measure {
namespace {

Trace make_trace(const std::string& vantage, int batch, int index) {
  Trace trace;
  trace.vantage = vantage;
  trace.batch = batch;
  trace.index = index;
  for (int i = 0; i < 4; ++i) {
    ServerResult s;
    s.server = wire::Ipv4Address(11, 0, 0, static_cast<std::uint8_t>(i + 1));
    s.udp_plain.reachable = true;
    s.udp_plain.attempts = 1;
    s.udp_ect0.reachable = i != 2;  // one server ECT-unreachable
    s.udp_ect0.attempts = i != 2 ? 1 : 5;
    s.tcp_plain.connected = i < 3;
    s.tcp_plain.got_response = i < 3;
    s.tcp_plain.http_status = i < 3 ? 302 : 0;
    s.tcp_ecn.connected = i < 3;
    s.tcp_ecn.ecn_negotiated = i < 2;
    s.tcp_ecn.got_response = i < 3;
    s.tcp_ecn.http_status = i < 3 ? 302 : 0;
    trace.servers.push_back(s);
  }
  return trace;
}

TEST(TraceSummaries, CountsMatchConstruction) {
  const auto trace = make_trace("UGla wired", 1, 0);
  EXPECT_EQ(trace.reachable_udp_plain(), 4);
  EXPECT_EQ(trace.reachable_udp_ect0(), 3);
  EXPECT_EQ(trace.reachable_tcp(), 3);
  EXPECT_EQ(trace.negotiated_ecn_tcp(), 2);
  EXPECT_DOUBLE_EQ(trace.pct_ect_given_plain(), 75.0);
  EXPECT_DOUBLE_EQ(trace.pct_plain_given_ect(), 100.0);
  EXPECT_EQ(trace.unreachable_udp_with_ect(), 1);
}

TEST(TraceSummaries, EmptyTraceSafe) {
  Trace trace;
  EXPECT_EQ(trace.pct_ect_given_plain(), 0.0);
  EXPECT_EQ(trace.pct_plain_given_ect(), 0.0);
}

TEST(ResultsCsv, RoundTripPreservesEverything) {
  std::vector<Trace> traces = {make_trace("Perkins home", 1, 0),
                               make_trace("EC2 Tok", 2, 1)};
  std::ostringstream os;
  write_traces_csv(os, traces);

  std::istringstream is(os.str());
  const auto loaded = read_traces_csv(is);
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->size(), 2u);
  const auto& t0 = (*loaded)[0];
  EXPECT_EQ(t0.vantage, "Perkins home");
  EXPECT_EQ(t0.batch, 1);
  EXPECT_EQ(t0.index, 0);
  ASSERT_EQ(t0.servers.size(), 4u);
  EXPECT_EQ(t0.servers[2].udp_ect0.reachable, false);
  EXPECT_EQ(t0.servers[2].udp_ect0.attempts, 5);
  EXPECT_EQ(t0.servers[0].tcp_ecn.ecn_negotiated, true);
  EXPECT_EQ(t0.servers[3].tcp_plain.http_status, 0);
  // Summary functions agree after the round trip.
  EXPECT_EQ(t0.reachable_udp_plain(), traces[0].reachable_udp_plain());
  EXPECT_EQ(t0.negotiated_ecn_tcp(), traces[0].negotiated_ecn_tcp());
}

TEST(ResultsCsv, RejectsEmptyAndMalformed) {
  std::istringstream empty("");
  EXPECT_FALSE(read_traces_csv(empty));

  std::istringstream bad_fields("header\na,b,c\n");
  EXPECT_FALSE(read_traces_csv(bad_fields));

  std::istringstream bad_addr(
      "h\nv,1,0,notanip,1,1,1,1,0,0,0,0,0,0,0\n");
  EXPECT_FALSE(read_traces_csv(bad_addr));
}

TEST(ResultsCsv, SkipsBlankLines) {
  std::vector<Trace> traces = {make_trace("X", 1, 0)};
  std::ostringstream os;
  write_traces_csv(os, traces);
  std::istringstream is(os.str() + "\n\n");
  const auto loaded = read_traces_csv(is);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->size(), 1u);
}

TEST(ResultsCsv, ByteIdenticalToCsvWriterRows) {
  // The exporter builds rows by hand; they must stay exactly what
  // util::CsvWriter gives for the same cells, quoting included, also past
  // the exporter's internal flush size.
  std::vector<Trace> traces = {make_trace("plain", 1, 0),
                               make_trace("comma, \"quoted\" vantage", 2, 210),
                               make_trace("", 1, -3)};
  traces[0].servers[1].tcp_plain.http_status = -1;
  traces[0].servers[1].udp_ect0.attempts = 2147483647;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    ServerResult s;
    s.server = wire::Ipv4Address(i * 2654435761u);
    s.udp_plain.reachable = i % 2 == 0;
    s.udp_plain.attempts = static_cast<int>(i % 6);
    s.tcp_ecn.http_status = static_cast<int>(i % 600);
    traces[2].servers.push_back(s);
  }

  std::ostringstream expected;
  util::CsvWriter csv(expected);
  csv.write_row({"vantage", "batch", "trace", "server", "udp_plain", "udp_plain_tries",
                 "udp_ect0", "udp_ect0_tries", "tcp_conn", "tcp_resp", "tcp_status",
                 "tcpecn_conn", "tcpecn_negotiated", "tcpecn_resp", "tcpecn_status"});
  const auto flag = [](bool b) { return std::string(b ? "1" : "0"); };
  for (const auto& trace : traces) {
    for (const auto& s : trace.servers) {
      csv.write_row({trace.vantage, std::to_string(trace.batch), std::to_string(trace.index),
                     s.server.to_string(), flag(s.udp_plain.reachable),
                     std::to_string(s.udp_plain.attempts), flag(s.udp_ect0.reachable),
                     std::to_string(s.udp_ect0.attempts), flag(s.tcp_plain.connected),
                     flag(s.tcp_plain.got_response), std::to_string(s.tcp_plain.http_status),
                     flag(s.tcp_ecn.connected), flag(s.tcp_ecn.ecn_negotiated),
                     flag(s.tcp_ecn.got_response), std::to_string(s.tcp_ecn.http_status)});
    }
  }
  std::ostringstream actual;
  write_traces_csv(actual, traces);
  EXPECT_GT(actual.str().size(), std::size_t{1} << 17);
  EXPECT_EQ(actual.str(), expected.str());
}

}  // namespace
}  // namespace ecnprobe::measure
