#include "ecnprobe/netsim/sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecnprobe::netsim {

void EventHandle::cancel() {
  if (cancelled_) *cancelled_ = true;
}

bool EventHandle::pending() const { return cancelled_ && !*cancelled_; }

void Simulator::assert_owner() {
  const auto self = std::this_thread::get_id();
  if (owner_ == std::thread::id{}) {
    owner_ = self;
  } else if (owner_ != self) {
    throw std::logic_error(
        "Simulator: used from a second thread; each simulation instance is "
        "single-threaded (give every campaign worker its own world)");
  }
}

void Simulator::schedule_when_idle(std::function<void()> fn) {
  assert_owner();
  idle_.push_back(std::move(fn));
}

bool Simulator::fire_next() {
  while (!queue_.empty()) {
    SimEvent ev = queue_.pop();
    if (ev.cancelled && *ev.cancelled) {
      --live_;  // reap an event cancelled via its handle
      continue;
    }
    --live_;
    now_ = ev.when;
    if (ev.cancelled) *ev.cancelled = true;  // "fired": EventHandle::pending() is false
    ++tally_fired_;
    if (lag_histogram_ != nullptr) {
      const double lag_ms = (ev.when - ev.scheduled_at).to_millis();
      tally_lag_sum_milli_ += static_cast<std::int64_t>(std::llround(lag_ms * 1000.0));
      std::size_t i = 0;
      while (i < lag_bounds_.size() && lag_ms > lag_bounds_[i]) ++i;
      ++tally_lag_buckets_[i];
    }
    ev.fn();
    ++processed_;
    return true;
  }
  return false;
}

namespace {
/// Publishes a simulator's tallies when a run loop exits, by return or by
/// an exception unwinding out of a callback.
struct PublishOnExit {
  Simulator& sim;
  ~PublishOnExit() { sim.publish_metrics(); }
};
}  // namespace

void Simulator::set_metrics(obs::Counter* events_fired, obs::Histogram* event_lag_ms) {
  publish_metrics();  // tallies so far belong to the previous instruments
  events_counter_ = events_fired;
  lag_histogram_ = event_lag_ms;
  lag_bounds_ = lag_histogram_ != nullptr ? lag_histogram_->bounds() : std::vector<double>{};
  tally_lag_buckets_.assign(lag_bounds_.size() + 1, 0);
}

void Simulator::publish_metrics() {
  if (tally_fired_ != 0) {
    if (events_counter_ != nullptr) events_counter_->inc(tally_fired_);
    if (lag_histogram_ != nullptr) {
      lag_histogram_->add_tallies(tally_lag_buckets_, tally_fired_, tally_lag_sum_milli_);
      std::fill(tally_lag_buckets_.begin(), tally_lag_buckets_.end(), 0);
      tally_lag_sum_milli_ = 0;
    }
    tally_fired_ = 0;
  }
  for (const auto& [owner, publish] : publishers_) publish();
}

void Simulator::add_metrics_publisher(const void* owner, std::function<void()> publish) {
  publishers_.emplace_back(owner, std::move(publish));
}

void Simulator::remove_metrics_publisher(const void* owner) {
  std::erase_if(publishers_, [owner](const auto& entry) { return entry.first == owner; });
}

std::size_t Simulator::run(std::size_t limit) {
  assert_owner();
  PublishOnExit publish{*this};
  std::size_t fired = 0;
  while (fired < limit) {
    if (fire_next()) {
      ++fired;
      continue;
    }
    if (idle_.empty()) break;
    auto fn = std::move(idle_.front());
    idle_.pop_front();
    fn();
    ++fired;
  }
  return fired;
}

std::size_t Simulator::run_until(SimTime until) {
  assert_owner();
  PublishOnExit publish{*this};
  std::size_t fired = 0;
  while (!queue_.empty() && queue_.min_when() <= until) {
    if (fire_next()) ++fired;
  }
  if (now_ < until) now_ = until;
  return fired;
}

void Simulator::clear_pending() {
  assert_owner();
  queue_.clear();
  idle_.clear();
  live_ = 0;
}

}  // namespace ecnprobe::netsim
