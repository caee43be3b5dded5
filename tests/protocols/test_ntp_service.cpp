#include "ecnprobe/ntp/ntp.hpp"

#include <gtest/gtest.h>

#include "../netsim/mini_net.hpp"

namespace ecnprobe::ntp {
namespace {

using namespace ecnprobe::util::literals;
using netsim::testutil::Chain;

struct NtpFixture : ::testing::Test {
  Chain chain{2};
  SimClock clock;
  NtpServerService server{*chain.host_b, clock, 2};
  NtpClient client{*chain.host_a, clock};
};

TEST_F(NtpFixture, QuerySucceedsFirstAttempt) {
  std::optional<NtpQueryResult> result;
  client.query(chain.host_b->address(), NtpQueryOptions{},
               [&](const NtpQueryResult& r) { result = r; });
  chain.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->attempts, 1);
  EXPECT_EQ(result->server_stratum, 2);
  EXPECT_GT(result->rtt.count_nanos(), 0);
  EXPECT_EQ(server.stats().requests, 1u);
  EXPECT_EQ(server.stats().responses, 1u);
}

TEST_F(NtpFixture, Ect0MarkedQueryReachesServerMarked) {
  NtpQueryOptions options;
  options.ecn = wire::Ecn::Ect0;
  std::optional<NtpQueryResult> result;
  client.query(chain.host_b->address(), options,
               [&](const NtpQueryResult& r) { result = r; });
  chain.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->success);
  EXPECT_EQ(server.stats().ect_marked_requests, 1u);
  // NTP responses are not-ECT (servers do not do ECN).
  EXPECT_EQ(result->response_ecn, wire::Ecn::NotEct);
}

TEST_F(NtpFixture, OfflineServerExhaustsFiveAttempts) {
  server.set_online(false);
  std::optional<NtpQueryResult> result;
  const auto start = chain.sim.now();
  client.query(chain.host_b->address(), NtpQueryOptions{},
               [&](const NtpQueryResult& r) { result = r; });
  chain.sim.run();
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->attempts, 5);  // the paper's five requests
  // Five 1-second timeouts elapse.
  EXPECT_GE((chain.sim.now() - start).count_nanos(), (5_s).count_nanos());
  EXPECT_EQ(server.stats().requests, 5u);  // host up, ntpd silent
  EXPECT_EQ(server.stats().responses, 0u);
}

TEST_F(NtpFixture, EctDropFirewallMakesServerUnreachableOnlyWithEct) {
  // Firewall in front of the server dropping ECT-marked UDP.
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::EctUdpDropPolicy>());
  std::optional<NtpQueryResult> plain;
  std::optional<NtpQueryResult> ect;
  client.query(chain.host_b->address(), NtpQueryOptions{},
               [&](const NtpQueryResult& r) { plain = r; });
  chain.sim.run();
  NtpQueryOptions ect_options;
  ect_options.ecn = wire::Ecn::Ect0;
  client.query(chain.host_b->address(), ect_options,
               [&](const NtpQueryResult& r) { ect = r; });
  chain.sim.run();
  ASSERT_TRUE(plain && ect);
  EXPECT_TRUE(plain->success);
  EXPECT_FALSE(ect->success);
  EXPECT_EQ(ect->attempts, 5);
}

TEST(NtpRateLimit, FlakyServerSometimesNeedsRetries) {
  Chain chain(1);
  SimClock clock;
  NtpServerService::Params params;
  params.stratum = 2;
  params.response_prob = 0.6;
  NtpServerService server(*chain.host_b, clock, params);
  NtpClient client(*chain.host_a, clock);

  int successes = 0;
  int total_attempts = 0;
  int done = 0;
  const int n = 60;
  std::function<void(int)> run_query = [&](int remaining) {
    if (remaining == 0) return;
    client.query(chain.host_b->address(), NtpQueryOptions{},
                 [&, remaining](const NtpQueryResult& r) {
                   ++done;
                   successes += r.success ? 1 : 0;
                   total_attempts += r.attempts;
                   run_query(remaining - 1);
                 });
  };
  run_query(n);
  chain.sim.run();
  EXPECT_EQ(done, n);
  EXPECT_GT(successes, n * 9 / 10);  // 1 - 0.4^5 = 99%
  EXPECT_GT(total_attempts, n);      // retries actually happened
}

TEST(NtpClock, SimClockAnchorsAtCampaignDate) {
  SimClock clock;
  const auto ts = clock.at(util::SimTime::zero());
  // 2015-04-13 in the NTP era.
  EXPECT_EQ(ts.seconds, 1'428'883'200u + wire::NtpTimestamp::kUnixEpochOffset);
  const auto later = clock.at(util::SimTime::zero() + 2_s);
  EXPECT_EQ(later.seconds, ts.seconds + 2);
}

TEST(NtpConcurrent, ParallelQueriesToDistinctServersDoNotCross) {
  // Two servers on one chain host cannot share port 123; build two chains
  // is overkill -- instead check two concurrent queries to the same server
  // are individually matched by origin timestamp.
  Chain chain(1);
  SimClock clock;
  NtpServerService server(*chain.host_b, clock, 3);
  NtpClient client(*chain.host_a, clock);
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    client.query(chain.host_b->address(), NtpQueryOptions{},
                 [&](const NtpQueryResult& r) {
                   EXPECT_TRUE(r.success);
                   ++completed;
                 });
  }
  chain.sim.run();
  EXPECT_EQ(completed, 5);
}

// -- lifetime: a finished query holds nothing -------------------------------
// The completion handler captures a sentinel; once the simulator drains, the
// pending query and its socket must be gone.

TEST_F(NtpFixture, AnsweredQueryReleasesEverything) {
  // Success closes the socket from inside the socket's own handler.
  auto sentinel = std::make_shared<int>(0);
  std::optional<NtpQueryResult> result;
  client.query(chain.host_b->address(), NtpQueryOptions{},
               [&result, sentinel](const NtpQueryResult& r) { result = r; });
  EXPECT_EQ(chain.host_a->udp_socket_count(), 1u);
  chain.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->success);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(chain.host_a->udp_socket_count(), 0u);
}

TEST_F(NtpFixture, TimedOutQueryReleasesEverything) {
  server.set_online(false);
  auto sentinel = std::make_shared<int>(0);
  std::optional<NtpQueryResult> result;
  client.query(chain.host_b->address(), NtpQueryOptions{},
               [&result, sentinel](const NtpQueryResult& r) { result = r; });
  chain.sim.run();
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->success);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(chain.host_a->udp_socket_count(), 0u);
}

TEST_F(NtpFixture, HedgedQueryReleasesEverything) {
  // A hedge leaves a second response in flight after the first one wins;
  // it must find the socket closed, not a leaked query.
  NtpQueryOptions options;
  options.hedge_delay = util::SimDuration::millis(1);
  auto sentinel = std::make_shared<int>(0);
  std::optional<NtpQueryResult> result;
  client.query(chain.host_b->address(), options,
               [&result, sentinel](const NtpQueryResult& r) { result = r; });
  chain.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->success);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(chain.host_a->udp_socket_count(), 0u);
}

}  // namespace
}  // namespace ecnprobe::ntp
