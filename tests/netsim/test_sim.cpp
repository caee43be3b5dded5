#include "ecnprobe/netsim/sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/util/rng.hpp"

namespace ecnprobe::netsim {
namespace {

using namespace ecnprobe::util::literals;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30_ms, [&] { order.push_back(3); });
  sim.schedule(10_ms, [&] { order.push_back(1); });
  sim.schedule(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::zero() + 30_ms);
}

TEST(Simulator, SameTimestampFiresFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  SimTime inner_time;
  sim.schedule(10_ms, [&] {
    sim.schedule(15_ms, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, SimTime::zero() + 25_ms);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule(10_ms, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  int fires = 0;
  auto handle = sim.schedule(1_ms, [&] { ++fires; });
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  sim.run();
  EXPECT_EQ(fires, 1);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10_ms, [&] { order.push_back(1); });
  sim.schedule(20_ms, [&] { order.push_back(2); });
  sim.schedule(30_ms, [&] { order.push_back(3); });
  sim.run_until(SimTime::zero() + 20_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::zero() + 20_ms);
  sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Simulator, RunUntilAdvancesTimeOnEmptyQueue) {
  Simulator sim;
  sim.run_until(SimTime::zero() + 5_s);
  EXPECT_EQ(sim.now(), SimTime::zero() + 5_s);
}

TEST(Simulator, RunLimitBoundsWork) {
  Simulator sim;
  int count = 0;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule(1_ms, tick);
  };
  sim.schedule(1_ms, tick);
  const auto fired = sim.run(100);
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(count, 100);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule(SimDuration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(Simulator, CountsProcessedAndPending) {
  Simulator sim;
  sim.schedule(1_ms, [] {});
  sim.schedule(2_ms, [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, IdleCallbacksFireOnlyWhenQueueDrains) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2_ms, [&] { order.push_back(1); });
  sim.schedule_when_idle([&] {
    order.push_back(2);
    // Work scheduled by an idle callback runs before the next idle one.
    sim.schedule(1_ms, [&] { order.push_back(3); });
  });
  sim.schedule_when_idle([&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.idle_callbacks_pending(), 0u);
}

TEST(Simulator, ClearPendingDropsEventsAndIdleCallbacks) {
  Simulator sim;
  bool fired = false;
  sim.schedule(1_ms, [&] { fired = true; });
  sim.schedule_when_idle([&] { fired = true; });
  sim.clear_pending();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.idle_callbacks_pending(), 0u);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ClearPendingDestroysEveryQueuedClosure) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  for (int i = 0; i < 50; ++i) {
    sim.schedule(SimDuration::millis(i), [token] {});
    sim.post(SimDuration::millis(i), [token] {});
  }
  sim.schedule_when_idle([token] {});
  EXPECT_EQ(token.use_count(), 102);
  sim.clear_pending();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, SameNanosecondTieBreakIsSubmissionOrder) {
  // The total event order is (when, seq) with seq assigned at submission.
  // schedule() and post() draw from the same counter, so events landing on
  // the same nanosecond fire in exact submission order regardless of how
  // they were submitted.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5_ms, [&] { order.push_back(0); });
  sim.post(5_ms, [&] { order.push_back(1); });
  sim.schedule(5_ms, [&] { order.push_back(2); });
  sim.post(5_ms, [&] { order.push_back(3); });
  // An earlier event submitted later still fires first (time dominates).
  sim.schedule(1_ms, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{4, 0, 1, 2, 3}));
}

TEST(Simulator, RandomizedStormFiresInWhenSeqOrder) {
  // Randomized schedule / post / cancel workloads, some events scheduling
  // same-instant children when they fire (the recursive shape protocol
  // timers have). Labels are handed out in submission order, so a label is
  // its event's seq; the fire order must equal the uncancelled submissions
  // sorted by (when, label).
  struct Submitted {
    std::int64_t when_ns;
    int label;
    bool cancelled = false;
  };
  for (const std::uint64_t seed : {1u, 7u, 99u, 12345u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Simulator sim;
    util::Rng rng(seed);
    std::vector<Submitted> submitted;
    std::vector<int> fired;
    std::vector<std::pair<EventHandle, int>> handles;  // (handle, label)
    const auto record = [&](SimDuration delay) {
      const int label = static_cast<int>(submitted.size());
      submitted.push_back({(sim.now() + delay).count_nanos(), label});
      return label;
    };

    for (int i = 0; i < 200; ++i) {
      const auto delay = SimDuration::nanos(static_cast<std::int64_t>(rng.next_below(50'000)));
      const int label = record(delay);
      if (rng.next_below(3) == 0) {
        sim.post(delay, [&fired, label] { fired.push_back(label); });
        continue;
      }
      handles.emplace_back(sim.schedule(delay, [&, label] {
        fired.push_back(label);
        if (rng.next_below(2) == 0) {
          // Same-instant child: fires after everything already queued for
          // this instant, because its seq is larger.
          const int child = record(SimDuration{});
          sim.post(SimDuration{}, [&fired, child] { fired.push_back(child); });
        }
      }), label);
    }
    for (std::size_t i = 0; i < handles.size(); i += 3) {
      handles[i].first.cancel();
      submitted[static_cast<std::size_t>(handles[i].second)].cancelled = true;
    }
    sim.run();

    std::vector<Submitted> expected;
    for (const auto& s : submitted) {
      if (!s.cancelled) expected.push_back(s);
    }
    std::sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
      return a.when_ns != b.when_ns ? a.when_ns < b.when_ns : a.label < b.label;
    });
    std::vector<int> expected_labels;
    for (const auto& s : expected) expected_labels.push_back(s.label);
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired, expected_labels);
  }
}

TEST(Simulator, RunUntilCancelledEdgeMatches) {
  // The historical run_until() edge: a cancelled event at <= `until` lets
  // fire_next skip to a live event *beyond* `until`. It is part of the
  // golden event order, so it stays pinned.
  Simulator sim;
  std::vector<int> order;
  auto handle = sim.schedule(SimDuration::nanos(100), [&order] { order.push_back(1); });
  sim.schedule(SimDuration::nanos(500), [&order] { order.push_back(2); });
  handle.cancel();
  const auto fired = sim.run_until(SimTime::from_nanos(200));
  EXPECT_EQ(fired, 1u) << "cancelled front event pulls in the next live one";
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(sim.now().count_nanos(), 500);
}

TEST(Simulator, SecondThreadUseThrows) {
  // Each ParallelCampaign worker owns its simulator outright; the ownership
  // assertion turns an accidental cross-thread share into a loud failure
  // instead of a data race.
  Simulator sim;
  sim.schedule(1_ms, [] {});  // binds ownership to this thread
  bool threw = false;
  std::thread other([&] {
    try {
      sim.schedule(1_ms, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  sim.run();  // still usable from the owning thread
}

// -- instrumentation tallies ---------------------------------------------------
//
// The simulator tallies its fired-events counter and lag histogram locally
// and publishes them in bulk. Whatever path a run takes, the published
// values must equal what one Histogram::observe per fired event gives.

const std::vector<double> kLagBounds = {0.1, 1.0, 5.0, 25.0, 100.0, 500.0, 2500.0};

struct SimMetricsFixture {
  obs::MetricsRegistry registry;
  Simulator sim;
  obs::Histogram reference{kLagBounds};  ///< one observe() per fired event

  SimMetricsFixture() {
    sim.set_metrics(registry.counter("sim_events_total"),
                    registry.histogram("sim_event_lag_ms", kLagBounds));
  }

  /// Schedules (or posts) an event `delay` out that feeds the reference
  /// when it fires; `then` runs after that.
  void add(SimDuration delay, bool post = false, std::function<void()> then = nullptr) {
    auto fn = [this, delay, then = std::move(then)] {
      reference.observe(delay.to_millis());
      if (then) then();
    };
    if (post) {
      sim.post(delay, std::move(fn));
    } else {
      sim.schedule(delay, std::move(fn));
    }
  }

  /// A spread of lags: zero, sub-bucket, exactly on bounds, between
  /// bounds, and past the last bound (overflow).
  void add_spread() {
    const std::int64_t lags_us[] = {0,      50,      100,     101,       999,   1'000,
                                    1'001,  4'321,   5'000,   24'999,    25'000, 77'777,
                                    100'000, 499'999, 500'000, 2'500'000, 2'500'001,
                                    9'000'000};
    bool post = false;
    for (const auto us : lags_us) {
      add(SimDuration::micros(us), post);
      post = !post;
    }
  }

  void expect_published() const {
    const auto snapshot = registry.snapshot();
    const auto& events = snapshot.families.at("sim_events_total").samples.at({});
    const auto& lag = snapshot.families.at("sim_event_lag_ms").samples.at({});
    EXPECT_EQ(events.counter, reference.count());
    EXPECT_EQ(lag.count, reference.count());
    EXPECT_EQ(lag.sum_milli, reference.sum_milli());
    ASSERT_EQ(lag.buckets.size(), kLagBounds.size() + 1);
    for (std::size_t i = 0; i < lag.buckets.size(); ++i) {
      EXPECT_EQ(lag.buckets[i], reference.bucket_count(i)) << "bucket " << i;
    }
  }
};

TEST(SimulatorMetrics, RunPublishesPerEventTallies) {
  SimMetricsFixture f;
  f.add_spread();
  // Nested scheduling: the lag is measured from the inner schedule call.
  f.add(SimDuration::millis(3), false, [&f] { f.add(SimDuration::micros(250)); });
  f.sim.run();
  EXPECT_EQ(f.reference.count(), 20u);
  f.expect_published();
}

TEST(SimulatorMetrics, RunLimitAndRunUntilPublishOnReturn) {
  SimMetricsFixture f;
  f.add_spread();
  f.sim.run(5);
  EXPECT_EQ(f.reference.count(), 5u);
  f.expect_published();
  f.sim.run_until(SimTime::zero() + SimDuration::millis(100));
  EXPECT_EQ(f.reference.count(), 13u);
  f.expect_published();
  f.sim.run();
  EXPECT_EQ(f.reference.count(), 18u);
  f.expect_published();
}

TEST(SimulatorMetrics, SnapshotFromIdleCallbackSeesEveryFiredEvent) {
  SimMetricsFixture f;
  f.add_spread();
  bool checked = false;
  f.sim.schedule_when_idle([&] {
    // A mid-run reader (the sequential executor's trace commit) publishes
    // before it snapshots.
    f.sim.publish_metrics();
    f.expect_published();
    checked = true;
    f.add_spread();
  });
  f.sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(f.reference.count(), 36u);
  f.expect_published();  // and the run's own publish does not double count
}

TEST(SimulatorMetrics, ThrowingCallbackStillPublishes) {
  SimMetricsFixture f;
  f.add_spread();
  f.add(SimDuration::millis(7), false, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.sim.run(), std::runtime_error);
  f.expect_published();
  f.sim.clear_pending();
  f.add(SimDuration::millis(1));
  f.sim.run();
  f.expect_published();
}

}  // namespace
}  // namespace ecnprobe::netsim
