// The event queue behind netsim::Simulator: a binary heap that pops events
// in ascending (when, seq) order, where `seq` is the global insertion
// sequence number.
//
// The FIFO tie-break is explicit: `seq` is part of the ordering key, not an
// accident of container behaviour. Two events scheduled for the same
// nanosecond fire in scheduling order, by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ecnprobe/util/function.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::netsim {

using util::SimTime;

/// One scheduled event. `cancelled` is shared with the EventHandle given to
/// the scheduler's caller; it is null for fire-and-forget posts, which then
/// skip the per-event control-block allocation entirely.
struct SimEvent {
  SimTime when;
  std::uint64_t seq = 0;
  util::UniqueFunction fn;
  std::shared_ptr<bool> cancelled;
  SimTime scheduled_at;

  /// The total order events pop in.
  bool before(const SimEvent& other) const {
    if (when != other.when) return when < other.when;
    return seq < other.seq;
  }
};

/// Binary min-heap of events ordered by (when, seq).
class EventQueue {
public:
  void push(SimEvent&& ev);
  SimEvent pop();
  /// Key of the earliest queued event (cancelled entries included, matching
  /// the historical run_until() semantics). Undefined when empty.
  SimTime min_when() const { return heap_.front().when; }
  bool empty() const { return heap_.empty(); }
  /// Empties the queue but keeps its capacity (steady-state reuse).
  void clear() { heap_.clear(); }

private:
  struct Later {
    bool operator()(const SimEvent& a, const SimEvent& b) const { return b.before(a); }
  };
  std::vector<SimEvent> heap_;
};

}  // namespace ecnprobe::netsim
