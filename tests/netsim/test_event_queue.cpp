// Property test for the simulator's event queue: under randomized
// interleavings of push and pop -- same-tick bursts, near and far-future
// events, a clock that only moves forward -- the pop order must equal a
// reference stable sort by (when, seq). The mechanism tests pin what makes
// the queue cheap: the heap sifts keys, so an event's closure is relocated
// a constant number of times however deep the queue is, and body slots
// are reused.
#include "ecnprobe/netsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
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

/// A closure that counts how often it is move-constructed. Its move is
/// noexcept, so UniqueFunction keeps it inline and every relocation of the
/// event body shows up as one move.
struct MoveCounted {
  int* moves;
  explicit MoveCounted(int* m) : moves(m) {}
  MoveCounted(const MoveCounted&) = default;
  MoveCounted(MoveCounted&& other) noexcept : moves(other.moves) { ++*moves; }
  MoveCounted& operator=(const MoveCounted&) = delete;
  MoveCounted& operator=(MoveCounted&&) = delete;
  void operator()() {}
};

TEST(EventQueue, PushPopRelocatesTheClosureAConstantNumberOfTimes) {
  for (const std::uint64_t pending : {1u, 128u, 50'000u}) {
    SCOPED_TRACE("pending=" + std::to_string(pending));
    EventQueue queue;
    for (std::uint64_t i = 0; i < pending; ++i) {
      queue.push(make_event(1'000 + static_cast<std::int64_t>(i), i));
    }
    // Earliest key: it sifts all the way up on push and leaves from the
    // top on pop.
    int moves = 0;
    SimEvent first = make_event(0, pending);
    first.fn = util::UniqueFunction(MoveCounted(&moves));
    moves = 0;
    queue.push(std::move(first));
    SimEvent out = queue.pop();
    EXPECT_EQ(out.seq, pending);
    EXPECT_LE(moves, 2);

    // Latest key: it waits at the bottom while every other event is
    // popped past it.
    moves = 0;
    SimEvent last = make_event(1'000'000'000, pending + 1);
    last.fn = util::UniqueFunction(MoveCounted(&moves));
    moves = 0;
    queue.push(std::move(last));
    for (std::uint64_t i = 0; i < pending; ++i) ASSERT_EQ(queue.pop().seq, i);
    SimEvent last_out = queue.pop();
    EXPECT_EQ(last_out.seq, pending + 1);
    EXPECT_LE(moves, 2);
    last_out.fn();
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueue, ClearDestroysEveryQueuedClosure) {
  auto token = std::make_shared<int>(0);
  EventQueue queue;
  for (int i = 0; i < 100; ++i) {
    SimEvent ev = make_event(i, static_cast<std::uint64_t>(i));
    ev.fn = [token] {};
    queue.push(std::move(ev));
  }
  EXPECT_EQ(token.use_count(), 101);
  // A popped event leaves nothing behind in its slot.
  for (int i = 0; i < 10; ++i) queue.pop();
  EXPECT_EQ(token.use_count(), 91);
  queue.clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, FreedSlotsAreReusedAndOrderHolds) {
  // The simulator pops cancelled and live events alike (it reaps the
  // cancelled ones after the pop), so every pop frees a slot. With at most
  // kMaxPending events queued, the slot vector never grows past that
  // however many events pass through.
  constexpr std::size_t kMaxPending = 64;
  EventQueue queue;
  util::Rng rng(5);
  std::int64_t now = 0;
  std::uint64_t seq = 0;
  std::vector<Key> pending;
  for (int round = 0; round < 20'000; ++round) {
    if (pending.size() < kMaxPending && (pending.empty() || rng.next_below(2) == 0)) {
      const std::int64_t when = now + static_cast<std::int64_t>(rng.next_below(1'000));
      SimEvent ev = make_event(when, seq);
      if (rng.next_below(3) == 0) ev.cancelled = std::make_shared<bool>(true);
      queue.push(std::move(ev));
      pending.emplace_back(when, seq++);
    } else {
      const auto expected = std::min_element(pending.begin(), pending.end());
      const SimEvent ev = queue.pop();
      ASSERT_EQ(Key(ev.when.count_nanos(), ev.seq), *expected);
      pending.erase(expected);
      now = ev.when.count_nanos();
    }
    ASSERT_LE(queue.slot_count(), kMaxPending);
  }
  EXPECT_GT(seq, 5 * kMaxPending);
  EXPECT_EQ(queue.slot_count(), kMaxPending);
}

}  // namespace
}  // namespace ecnprobe::netsim
