#include "ecnprobe/http/http_service.hpp"

#include <gtest/gtest.h>

#include "../tcp/tcp_fixture.hpp"

namespace ecnprobe::http {
namespace {

using tcp::testutil::TcpPair;

struct HttpFixture : ::testing::Test {
  TcpPair pair{true};
  HttpServerService service{*pair.server, HttpServerService::Config{}};
  HttpGetClient client{*pair.client};
};

TEST_F(HttpFixture, GetReturnsPoolRedirect) {
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), false,
             [&](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->connected);
  EXPECT_TRUE(result->got_response);
  EXPECT_EQ(result->status, 302);
  EXPECT_EQ(result->location, "http://www.pool.ntp.org/");
  EXPECT_FALSE(result->ecn_negotiated);  // not requested
  EXPECT_EQ(service.stats().requests_served, 1u);
}

TEST_F(HttpFixture, EcnRequestedAndNegotiated) {
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), true,
             [&](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->connected);
  EXPECT_TRUE(result->ecn_negotiated);
  EXPECT_TRUE(result->got_response);
  EXPECT_EQ(service.stats().ecn_connections, 1u);
}

TEST(Http, EcnRefusedByUnwillingServer) {
  TcpPair pair(false);
  HttpServerService service(*pair.server, HttpServerService::Config{});
  HttpGetClient client(*pair.client);
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), true,
             [&](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->connected);
  EXPECT_FALSE(result->ecn_negotiated);  // server answered with plain SYN-ACK
  EXPECT_TRUE(result->got_response);     // but HTTP still works
}

TEST(Http, NoListenerMeansConnectionRefused) {
  TcpPair pair(true);
  HttpGetClient client(*pair.client);  // no HttpServerService on the server
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), false,
             [&](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->connected);
  EXPECT_FALSE(result->got_response);
}

TEST(Http, DisabledServiceRefusesThenRecovers) {
  TcpPair pair(true);
  HttpServerService service(*pair.server, HttpServerService::Config{});
  HttpGetClient client(*pair.client);
  service.set_enabled(false);
  std::optional<HttpGetResult> down;
  client.get(pair.server_host->address(), false,
             [&](const HttpGetResult& r) { down = r; });
  pair.sim.run();
  ASSERT_TRUE(down);
  EXPECT_FALSE(down->connected);

  service.set_enabled(true);
  std::optional<HttpGetResult> up;
  client.get(pair.server_host->address(), false,
             [&](const HttpGetResult& r) { up = r; });
  pair.sim.run();
  ASSERT_TRUE(up);
  EXPECT_TRUE(up->got_response);
}

TEST(Http, CustomStatusAndBody) {
  TcpPair pair(true);
  HttpServerService::Config config;
  config.status = 200;
  config.reason = "OK";
  config.body = "ntp pool member";
  HttpServerService service(*pair.server, config);
  HttpGetClient client(*pair.client);
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), false,
             [&](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->status, 200);
  EXPECT_TRUE(result->location.empty());
}

TEST(Http, DeadlineAbortsSlowServer) {
  TcpPair pair(true);
  // No HTTP service; instead a listener that accepts and never responds.
  pair.server->listen(80, [](std::shared_ptr<tcp::TcpConnection> conn) {
    conn->set_receive_handler([](std::span<const std::uint8_t>) {});
  });
  HttpGetClient client(*pair.client);
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), false,
             [&](const HttpGetResult& r) { result = r; }, wire::kHttpPort,
             util::SimDuration::seconds(2));
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->connected);
  EXPECT_FALSE(result->got_response);
  EXPECT_LE(pair.sim.now().to_seconds(), 10.0);  // deadline cut it short
}

TEST(Http, SurvivesLossyPath) {
  netsim::LinkParams link;
  link.loss_rate = 0.15;
  link.delay = util::SimDuration::millis(10);
  TcpPair pair(true, link);
  HttpServerService service(*pair.server, HttpServerService::Config{});
  HttpGetClient client(*pair.client);
  int got = 0;
  int done = 0;
  const int n = 20;
  std::function<void(int)> next = [&](int remaining) {
    if (remaining == 0) return;
    client.get(pair.server_host->address(), false,
               [&, remaining](const HttpGetResult& r) {
                 ++done;
                 got += r.got_response ? 1 : 0;
                 next(remaining - 1);
               });
  };
  next(n);
  pair.sim.run();
  EXPECT_EQ(done, n);
  EXPECT_GE(got, n - 3);  // TCP retransmits conceal the loss (Section 4.3)
}

// -- lifetime: nothing outlives a finished request --------------------------
// The completion handler captures a sentinel; once the simulator drains, the
// client's pending request, its connection and the server's session must all
// be gone, which leaves the test's own reference as the only one.

TEST_F(HttpFixture, SuccessfulGetReleasesEverything) {
  auto sentinel = std::make_shared<int>(0);
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), true,
             [&result, sentinel](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->got_response);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(pair.client->flow_count(), 0u);
  EXPECT_EQ(pair.server->flow_count(), 0u);
}

TEST(HttpLifetime, RefusedConnectionReleasesEverything) {
  TcpPair pair(true);
  HttpGetClient client(*pair.client);  // nobody listens on port 80
  auto sentinel = std::make_shared<int>(0);
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), false,
             [&result, sentinel](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->connected);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(pair.client->flow_count(), 0u);
}

TEST(HttpLifetime, DeadlineReleasesEverything) {
  TcpPair pair(true);
  pair.server->listen(80, [](std::shared_ptr<tcp::TcpConnection> conn) {
    conn->set_receive_handler([](std::span<const std::uint8_t>) {});  // never answers
  });
  HttpGetClient client(*pair.client);
  auto sentinel = std::make_shared<int>(0);
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), false,
             [&result, sentinel](const HttpGetResult& r) { result = r; }, wire::kHttpPort,
             util::SimDuration::seconds(2));
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->connected);
  EXPECT_FALSE(result->got_response);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(pair.client->flow_count(), 0u);
  EXPECT_EQ(pair.server->flow_count(), 0u);
}

TEST(HttpLifetime, MalformedResponseAbortsInsideTheHandler) {
  // The client aborts its connection from inside the receive handler that
  // is delivering the bad bytes.
  TcpPair pair(true);
  pair.server->listen(80, [](std::shared_ptr<tcp::TcpConnection> conn) {
    conn->set_receive_handler([conn](std::span<const std::uint8_t>) {
      conn->send(std::string_view("garbage that is not HTTP\r\n\r\n"));
    });
  });
  HttpGetClient client(*pair.client);
  auto sentinel = std::make_shared<int>(0);
  std::optional<HttpGetResult> result;
  client.get(pair.server_host->address(), false,
             [&result, sentinel](const HttpGetResult& r) { result = r; });
  pair.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->connected);
  EXPECT_FALSE(result->got_response);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(pair.client->flow_count(), 0u);
  EXPECT_EQ(pair.server->flow_count(), 0u);
}

TEST(HttpLifetime, ServerSessionsEndWithTheirConnections) {
  // Many requests against one service: every session and connection on
  // both ends is gone once the simulator drains.
  netsim::LinkParams link;
  link.loss_rate = 0.1;
  TcpPair pair(true, link);
  HttpServerService service(*pair.server, HttpServerService::Config{});
  HttpGetClient client(*pair.client);
  auto sentinel = std::make_shared<int>(0);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    client.get(pair.server_host->address(), i % 2 == 0,
               [&done, sentinel](const HttpGetResult&) { ++done; });
  }
  pair.sim.run();
  EXPECT_EQ(done, 10);
  EXPECT_GT(service.stats().requests_served, 0u);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(pair.client->flow_count(), 0u);
  EXPECT_EQ(pair.server->flow_count(), 0u);
}

}  // namespace
}  // namespace ecnprobe::http
