// Property test for the simulator's event queue: under randomized
// interleavings of push and pop -- same-tick bursts, near and far-future
// events, a clock that only moves forward -- the pop order must equal a
// reference stable sort by (when, seq).
#include "ecnprobe/netsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::netsim {
namespace {

using Key = std::pair<std::int64_t, std::uint64_t>;  // (when_ns, seq)

SimEvent make_event(std::int64_t when_ns, std::uint64_t seq) {
  SimEvent ev;
  ev.when = util::SimTime::from_nanos(when_ns);
  ev.seq = seq;
  return ev;
}

TEST(EventQueue, InterleavedPushPopMatchesSortedReference) {
  for (const std::uint64_t seed : {1u, 4u, 99u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EventQueue queue;
    util::Rng rng(seed);
    std::int64_t now = 0;
    std::uint64_t seq = 0;
    std::vector<Key> pending;  // reference: everything pushed, not yet popped
    for (int round = 0; round < 20'000; ++round) {
      if (queue.empty() || rng.next_below(100) < 55) {
        // Immediate, same-tick, near and far-future events; never in the
        // past relative to the virtual clock, like the simulator clamps.
        const std::uint64_t kind = rng.next_below(4);
        std::int64_t when = now;
        if (kind == 1) when = now + static_cast<std::int64_t>(rng.next_below(100));
        if (kind == 2) when = now + static_cast<std::int64_t>(rng.next_below(10'000));
        if (kind == 3) when = now + static_cast<std::int64_t>(rng.next_below(100'000'000));
        queue.push(make_event(when, seq));
        pending.emplace_back(when, seq);
        ++seq;
      } else {
        const auto expected = std::min_element(pending.begin(), pending.end());
        ASSERT_EQ(queue.min_when().count_nanos(), expected->first);
        const SimEvent ev = queue.pop();
        ASSERT_EQ(Key(ev.when.count_nanos(), ev.seq), *expected);
        pending.erase(expected);
        now = ev.when.count_nanos();
      }
    }
    std::sort(pending.begin(), pending.end());
    for (const Key& expected : pending) {
      const SimEvent ev = queue.pop();
      ASSERT_EQ(Key(ev.when.count_nanos(), ev.seq), expected);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueue, SameTickBurstPopsInInsertionOrder) {
  EventQueue queue;
  for (std::uint64_t i = 0; i < 5000; ++i) queue.push(make_event(42'000, i));
  for (std::uint64_t i = 0; i < 5000; ++i) ASSERT_EQ(queue.pop().seq, i);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ClearEmptiesAndQueueStaysUsable) {
  EventQueue queue;
  for (int i = 0; i < 1000; ++i) queue.push(make_event(i * 10, static_cast<std::uint64_t>(i)));
  queue.clear();
  EXPECT_TRUE(queue.empty());
  queue.push(make_event(30, 0));
  queue.push(make_event(10, 1));
  queue.push(make_event(10, 2));
  EXPECT_EQ(queue.min_when().count_nanos(), 10);
  EXPECT_EQ(queue.pop().seq, 1u);
  EXPECT_EQ(queue.pop().seq, 2u);
  EXPECT_EQ(queue.pop().seq, 0u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace ecnprobe::netsim
