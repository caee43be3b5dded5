// The event queue behind netsim::Simulator: a binary heap that pops events
// in ascending (when, seq) order, where `seq` is the global insertion
// sequence number.
//
// The FIFO tie-break is explicit: `seq` is part of the ordering key, not an
// accident of container behaviour. Two events scheduled for the same
// nanosecond fire in scheduling order, by construction.
//
// The heap sifts 24-byte {when, seq, slot} keys only. An event's body (its
// closure, cancellation flag and scheduling time) is moved once into a slot
// vector on push and once out of it on pop; sifting never touches it. Freed
// slots go on a free list, so the slot vector stays at the queue's
// high-water mark.
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
  /// Destroys every queued event but keeps the capacity (steady-state reuse).
  void clear();
  /// Body slots allocated so far: the deepest the queue has been.
  std::size_t slot_count() const { return slots_.size(); }

private:
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return b.when < a.when;
      return b.seq < a.seq;
    }
  };
  struct Body {
    util::UniqueFunction fn;
    std::shared_ptr<bool> cancelled;
    SimTime scheduled_at;
  };

  std::vector<Key> heap_;
  std::vector<Body> slots_;
  std::vector<std::uint32_t> free_;  ///< indices of empty slots
};

}  // namespace ecnprobe::netsim
