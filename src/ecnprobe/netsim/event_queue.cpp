#include "ecnprobe/netsim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ecnprobe::netsim {

void EventQueue::push(SimEvent&& ev) {
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  // Field-wise moves: the closure is relocated exactly once on the way in.
  Body& body = slots_[slot];
  body.fn = std::move(ev.fn);
  body.cancelled = std::move(ev.cancelled);
  body.scheduled_at = ev.scheduled_at;
  heap_.push_back(Key{ev.when, ev.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimEvent EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  Body& body = slots_[key.slot];
  free_.push_back(key.slot);
  return SimEvent{key.when, key.seq, std::move(body.fn), std::move(body.cancelled),
                  body.scheduled_at};
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  free_.clear();
}

}  // namespace ecnprobe::netsim
