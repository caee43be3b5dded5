#include "ecnprobe/obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ecnprobe::obs {

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

// -- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bounds must be increasing");
}

void Histogram::observe(double value) {
  // Fixed-point milli-units: exact, commutative accumulation so that
  // per-trace snapshot deltas merge to the same bytes in any order.
  sum_milli_.fetch_add(static_cast<std::int64_t>(std::llround(value * 1000.0)),
                       std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::add_tallies(std::span<const std::uint64_t> buckets, std::uint64_t count,
                            std::int64_t sum_milli) {
  assert(buckets.size() == buckets_.size() && "one tally per bucket, overflow included");
  sum_milli_.fetch_add(sum_milli, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] != 0) buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
  }
}

// -- CounterCache ------------------------------------------------------------

Counter& CounterCache::resolve(MetricsRegistry& registry, std::size_t slot,
                               std::string_view family, Labels labels, std::string_view help) {
  if (&registry != registry_) {
    registry_ = &registry;
    slots_.clear();
  }
  if (slot >= slots_.size()) slots_.resize(slot + 1, nullptr);
  LabelSet label_set;
  for (const auto& [key, value] : labels) label_set.emplace(key, value);
  slots_[slot] = registry.counter(std::string(family), label_set, std::string(help));
  return *slots_[slot];
}

// -- SampleValue -------------------------------------------------------------

bool SampleValue::is_zero() const {
  if (counter != 0 || gauge != 0 || count != 0 || sum_milli != 0) return false;
  return std::all_of(buckets.begin(), buckets.end(),
                     [](std::uint64_t b) { return b == 0; });
}

void SampleValue::add(const SampleValue& other) {
  counter += other.counter;
  gauge += other.gauge;
  count += other.count;
  sum_milli += other.sum_milli;
  if (buckets.size() < other.buckets.size()) buckets.resize(other.buckets.size());
  for (std::size_t i = 0; i < other.buckets.size(); ++i) buckets[i] += other.buckets[i];
}

SampleValue SampleValue::minus(const SampleValue& base) const {
  SampleValue out = *this;
  out.counter -= base.counter;
  out.gauge -= base.gauge;
  out.count -= base.count;
  out.sum_milli -= base.sum_milli;
  for (std::size_t i = 0; i < base.buckets.size() && i < out.buckets.size(); ++i) {
    out.buckets[i] -= base.buckets[i];
  }
  return out;
}

// -- MetricsSnapshot ---------------------------------------------------------

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, fam] : other.families) {
    auto [it, inserted] = families.try_emplace(name, fam);
    if (inserted) continue;
    // Histograms from registries that disagree on the bucket layout would
    // add bucket vectors element-wise into nonsense; fail loudly instead.
    if (!it->second.bounds.empty() && !fam.bounds.empty() &&
        it->second.bounds != fam.bounds) {
      throw std::invalid_argument(
          "MetricsSnapshot::merge: histogram '" + name +
          "' has mismatched bucket bounds across registries");
    }
    if (it->second.bounds.empty()) it->second.bounds = fam.bounds;
    for (const auto& [labels, value] : fam.samples) {
      auto [sit, fresh] = it->second.samples.try_emplace(labels, value);
      if (!fresh) sit->second.add(value);
    }
  }
}

MetricsSnapshot MetricsSnapshot::delta_since(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  for (const auto& [name, fam] : families) {
    const auto base_fam = base.families.find(name);
    FamilySnapshot delta;
    delta.kind = fam.kind;
    delta.help = fam.help;
    delta.bounds = fam.bounds;
    for (const auto& [labels, value] : fam.samples) {
      SampleValue d = value;
      if (base_fam != base.families.end()) {
        const auto base_sample = base_fam->second.samples.find(labels);
        if (base_sample != base_fam->second.samples.end()) {
          d = value.minus(base_sample->second);
        }
      }
      if (!d.is_zero()) delta.samples.emplace(labels, std::move(d));
    }
    if (!delta.samples.empty()) out.families.emplace(name, std::move(delta));
  }
  return out;
}

// -- MetricsRegistry ---------------------------------------------------------

MetricsRegistry::Family& MetricsRegistry::family_locked(const std::string& name,
                                                        MetricKind kind,
                                                        const std::string& help) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
    it->second.help = help;
  } else {
    assert(it->second.kind == kind && "metric family re-registered with a different kind");
    if (it->second.help.empty()) it->second.help = help;
  }
  return it->second;
}

Counter* MetricsRegistry::counter(const std::string& family, const LabelSet& labels,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& fam = family_locked(family, MetricKind::Counter, help);
  auto [it, inserted] = fam.counters.try_emplace(labels);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& family, const LabelSet& labels,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& fam = family_locked(family, MetricKind::Gauge, help);
  auto [it, inserted] = fam.gauges.try_emplace(labels);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(const std::string& family,
                                      std::vector<double> bounds, const LabelSet& labels,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& fam = family_locked(family, MetricKind::Histogram, help);
  if (fam.bounds.empty()) fam.bounds = bounds;
  auto [it, inserted] = fam.histograms.try_emplace(labels);
  if (inserted) it->second = std::make_unique<Histogram>(fam.bounds);
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, fam] : families_) {
    FamilySnapshot snap;
    snap.kind = fam.kind;
    snap.help = fam.help;
    snap.bounds = fam.bounds;
    for (const auto& [labels, cell] : fam.counters) {
      SampleValue v;
      v.counter = cell->value();
      snap.samples.emplace(labels, std::move(v));
    }
    for (const auto& [labels, cell] : fam.gauges) {
      SampleValue v;
      v.gauge = cell->value();
      snap.samples.emplace(labels, std::move(v));
    }
    for (const auto& [labels, cell] : fam.histograms) {
      SampleValue v;
      v.count = cell->count();
      v.sum_milli = cell->sum_milli();
      v.buckets.resize(fam.bounds.size() + 1);
      for (std::size_t i = 0; i < v.buckets.size(); ++i) v.buckets[i] = cell->bucket_count(i);
      snap.samples.emplace(labels, std::move(v));
    }
    out.families.emplace(name, std::move(snap));
  }
  return out;
}

}  // namespace ecnprobe::obs
