#include "ecnprobe/netsim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ecnprobe::netsim {

void EventQueue::push(SimEvent&& ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimEvent EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  SimEvent out = std::move(heap_.back());
  heap_.pop_back();
  return out;
}

}  // namespace ecnprobe::netsim
