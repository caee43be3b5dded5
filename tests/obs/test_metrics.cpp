// MetricsRegistry contract tests: exact concurrent counting, histogram
// bucket-boundary semantics, snapshot algebra (merge/delta), and the
// deterministic JSON/Prometheus encoders.
#include "ecnprobe/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "ecnprobe/obs/export.hpp"

namespace ecnprobe::obs {
namespace {

TEST(MetricsRegistry, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  auto* counter = registry.counter("hits_total", {}, "test counter");
  auto* gauge = registry.gauge("depth", {}, "test gauge");
  auto* histogram = registry.histogram("lat_ms", {1.0, 10.0, 100.0}, {}, "test histo");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->inc();
        gauge->add(1);
        gauge->add(-1);
        histogram->observe(5.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(histogram->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram->sum_milli(),
            static_cast<std::int64_t>(kThreads) * kPerThread * 5000);
}

TEST(MetricsRegistry, InstrumentPointersAreStable) {
  MetricsRegistry registry;
  auto* first = registry.counter("a_total", {{"k", "v"}});
  // Registering many more instruments must not move the first one.
  for (int i = 0; i < 100; ++i) {
    registry.counter("a_total", {{"k", "v" + std::to_string(i)}});
  }
  EXPECT_EQ(registry.counter("a_total", {{"k", "v"}}), first);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.5, 10.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // <= 1.0 (boundary lands in its own bucket)
  h.observe(1.001); // <= 2.5
  h.observe(2.5);   // <= 2.5
  h.observe(10.0);  // <= 10.0
  h.observe(10.5);  // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 6u);
  // Sum in exact fixed-point millis: 0.5+1+1.001+2.5+10+10.5 = 25.501.
  EXPECT_EQ(h.sum_milli(), 25501);
}

TEST(MetricsSnapshot, DeltaDropsUntouchedInstrumentsAndMergeRestores) {
  MetricsRegistry registry;
  auto* warm = registry.counter("warm_total");
  registry.counter("cold_total");  // registered, never incremented
  warm->inc(3);

  const auto base = registry.snapshot();
  warm->inc(4);
  const auto delta = registry.snapshot().delta_since(base);

  // Only the family that moved appears in the delta, with just the motion.
  ASSERT_TRUE(delta.families.contains("warm_total"));
  EXPECT_FALSE(delta.families.contains("cold_total"));
  EXPECT_EQ(delta.families.at("warm_total").samples.at({}).counter, 4u);

  // base + delta == current.
  MetricsSnapshot reconstructed = base;
  reconstructed.merge(delta);
  EXPECT_EQ(reconstructed.families.at("warm_total").samples.at({}).counter, 7u);
}

TEST(MetricsExport, EqualRegistriesEncodeToEqualBytes) {
  auto populate = [](MetricsRegistry& r) {
    // Deliberately different registration order: encoding must canonicalize.
    r.counter("z_total", {{"b", "2"}, {"a", "1"}})->inc(5);
    r.histogram("h_ms", {1.0, 5.0}, {{"v", "x"}})->observe(3.25);
    r.counter("a_total")->inc(1);
    r.gauge("g", {{"v", "y"}})->set(-4);
  };
  auto populate_reversed = [](MetricsRegistry& r) {
    r.gauge("g", {{"v", "y"}})->set(-4);
    r.counter("a_total")->inc(1);
    r.histogram("h_ms", {1.0, 5.0}, {{"a", "ignored-labels-differ"}});
    r.histogram("h_ms", {1.0, 5.0}, {{"v", "x"}})->observe(3.25);
    r.counter("z_total", {{"a", "1"}, {"b", "2"}})->inc(5);
  };
  MetricsRegistry one;
  MetricsRegistry two;
  populate(one);
  populate_reversed(two);
  // `two` has one extra registered-but-untouched histogram cell; deltas from
  // empty drop it, so the deltas encode identically.
  const auto snap_one = one.snapshot().delta_since({});
  const auto snap_two = two.snapshot().delta_since({});
  EXPECT_EQ(to_json(snap_one), to_json(snap_two));
  EXPECT_EQ(to_prometheus(snap_one), to_prometheus(snap_two));
}

TEST(MetricsExport, JsonAndPrometheusCarryTheSameNumbers) {
  MetricsRegistry registry;
  registry.counter("requests_total", {{"code", "200"}}, "requests")->inc(42);
  auto* h = registry.histogram("rtt_ms", {10.0, 50.0}, {}, "round trips");
  h->observe(7.0);
  h->observe(20.0);
  h->observe(99.0);
  const auto snap = registry.snapshot();

  const auto json = to_json(snap);
  EXPECT_NE(json.find("\"requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"200\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":126.000"), std::string::npos);

  const auto prom = to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("requests_total{code=\"200\"} 42"), std::string::npos);
  // Cumulative buckets: le="50" covers both the 7 and the 20.
  EXPECT_NE(prom.find("rtt_ms_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("rtt_ms_bucket{le=\"50\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("rtt_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("rtt_ms_count 3"), std::string::npos);
}

TEST(MetricsSnapshot, MergeIsCommutativeOnDisjointAndSharedFamilies) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("shared_total")->inc(2);
  a.counter("only_a_total")->inc(1);
  b.counter("shared_total")->inc(5);
  b.counter("only_b_total")->inc(9);

  auto ab = a.snapshot();
  ab.merge(b.snapshot());
  auto ba = b.snapshot();
  ba.merge(a.snapshot());
  EXPECT_EQ(to_json(ab), to_json(ba));
  EXPECT_EQ(ab.families.at("shared_total").samples.at({}).counter, 7u);
}

TEST(MetricsSnapshot, MergeRejectsMismatchedHistogramBounds) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.histogram("rtt_ms", {1.0, 10.0, 100.0})->observe(5.0);
  b.histogram("rtt_ms", {2.0, 20.0})->observe(5.0);
  auto merged = a.snapshot();
  // Summing per-bucket counts across different bounds would silently
  // misalign every bucket; the merge must refuse loudly instead.
  EXPECT_THROW(merged.merge(b.snapshot()), std::invalid_argument);

  // Same bounds still merge fine, and a bounds-less side adopts the
  // other's layout (the journal codec can produce header-only families).
  MetricsRegistry c;
  c.histogram("rtt_ms", {1.0, 10.0, 100.0})->observe(50.0);
  auto ok = a.snapshot();
  ok.merge(c.snapshot());
  EXPECT_EQ(ok.families.at("rtt_ms").samples.at({}).count, 2u);
}

TEST(CounterCache, RegistersALabelSetOnFirstUseAndFollowsTheRegistry) {
  MetricsRegistry a;
  MetricsRegistry b;
  CounterCache cache;
  Counter& ok = cache.get(a, 1, "probes_total", {{"outcome", "ok"}}, "probes");
  ok.inc();
  // Cached: the same instrument, no second lookup needed.
  EXPECT_EQ(&cache.get(a, 1, "probes_total", {{"outcome", "ok"}}, "probes"), &ok);
  EXPECT_EQ(&ok, a.counter("probes_total", {{"outcome", "ok"}}));
  // Slot 0 was never asked for, so its label set was never registered.
  const auto snapshot = a.snapshot();
  ASSERT_EQ(snapshot.families.at("probes_total").samples.size(), 1u);
  EXPECT_EQ(snapshot.families.at("probes_total").samples.at({{"outcome", "ok"}}).counter, 1u);
  // A different registry drops every cached slot.
  Counter& in_b = cache.get(b, 1, "probes_total", {{"outcome", "ok"}}, "probes");
  EXPECT_EQ(&in_b, b.counter("probes_total", {{"outcome", "ok"}}));
  EXPECT_NE(&in_b, &ok);
}

}  // namespace
}  // namespace ecnprobe::obs
