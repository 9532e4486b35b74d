// Pending-event set for the discrete-event simulator.
//
// A binary heap keyed by (time, sequence number) orders execution: ties in
// time are broken by insertion order, which makes runs independent of heap
// internals and hence reproducible. Callbacks live in a generation-checked
// slot map; the heap holds only light (time, seq, slot, gen) records. An
// EventId encodes (generation << 32 | slot), so cancel() is O(1): decode,
// compare generations, drop the callback. The heap entry of a cancelled event
// stays behind and is skipped when it surfaces at the top.
//
// FIFO timer lane. A timer re-armed at now + period, with one period, is
// scheduled at times that never decrease. schedule_fifo() appends such an
// event to a ring buffer instead of the heap: O(1) in, O(1) out. The lane
// draws its sequence number from the same counter as the heap and uses the
// same slot map, so every event, in either container, has a unique
// (time, seq) key, and the lane is sorted by that key because both parts
// only grow. pop() takes the smaller of the heap top and the lane front,
// which is exactly the event a heap holding both would pop: the execution
// order, the ids, the cancel semantics below and Stats do not depend on
// which container an event went to.
//
// Cancellation semantics (tested in tests/sim/test_event_queue.cpp):
//  - cancel() returns true exactly once, and only if the event had not yet
//    fired: the slot is freed and the callback destroyed immediately.
//  - cancel-after-fire returns false: pop() frees the slot before the caller
//    runs the callback, so from the callback's perspective the event no
//    longer exists.
//  - double-cancel returns false: the first cancel frees the slot.
//  - cancel-inside-own-callback returns false (the mid-pop() window): the
//    event is already spent once pop() has returned it, even though the
//    callback has not finished running.
//  - cancel-other-from-callback behaves normally: cancelling a different
//    pending event from inside a running callback returns true and the
//    victim never fires.
//  - stale ids never alias: a slot's generation is bumped on reuse (and
//    generation 0 is skipped on wrap), so an id from a fired or cancelled
//    event keeps returning false even after its slot is recycled — including
//    across clear().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/types.hpp"

namespace p2panon::sim {

/// An event is an opaque callback executed at its scheduled time.
using EventFn = EventCallback;

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Engine-health counters, monotone over the queue's lifetime (reset() by
  /// clear()). callback_heap_allocs counts scheduled callbacks whose capture
  /// outgrew EventCallback's inline buffer — zero in steady state.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t fired = 0;
    std::uint64_t callback_heap_allocs = 0;
  };

  /// Schedule `fn` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(Time at, EventFn fn);

  /// schedule() through the FIFO lane (see the header comment).
  /// Precondition: `at` is no earlier than the latest lane event still
  /// queued — true of any timer re-armed at now + a fixed period.
  EventId schedule_fifo(Time at, EventFn fn);

  /// Cancel a previously scheduled event in O(1). Returns false if the event
  /// has already fired, been cancelled, or never existed (see the semantics
  /// block above).
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] Time next_time() const noexcept;

  /// Pop and return the earliest live event. Precondition: !empty().
  /// The event's slot is freed before this returns: cancel(id) for the popped
  /// id answers false from here on, and the id may be reused by a later
  /// schedule() (under a fresh generation).
  struct Popped {
    Time time = 0.0;
    EventId id = kInvalidEventId;
    EventFn fn;
  };
  Popped pop();

  /// pop() if the earliest live event is due at or before `until`: moves it
  /// into `out` and returns true; otherwise leaves `out` alone and returns
  /// false. Finds the earliest event once, where next_time() followed by
  /// pop() would find it twice.
  bool pop_until(Time until, Popped& out);

  /// Drop everything and zero the stats. Outstanding ids stay dead: slot
  /// generations survive and are bumped on reuse as usual.
  void clear();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Slot {
    EventCallback fn;
    std::uint32_t gen = 0;       // bumped on allocation; 0 is never live
    std::uint32_t next_free = 0; // free-list link, valid while not live
    bool live = false;
  };

  struct Entry {
    Time time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // Min-heap ordering on (time, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  [[nodiscard]] bool entry_live(const Entry& e) const noexcept {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }

  [[nodiscard]] const Entry& lane_front() const noexcept { return lane_[lane_head_]; }

  // Physically remove the entries of cancelled events as they surface at
  // the heap top and the lane front, then return the earliest live entry
  // (nullptr when empty). Logically const: the live set is unchanged (heap_
  // and the lane cursor are mutable bookkeeping, slots are not touched).
  const Entry* earliest() const;

  // Common part of schedule() and schedule_fifo(): count, store the
  // callback in a fresh slot, and stamp the next sequence number.
  Entry admit(Time at, EventFn fn);
  void lane_push(const Entry& e);
  void lane_pop_front() const noexcept;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  mutable std::vector<Entry> heap_;
  // FIFO lane: a ring buffer whose capacity is zero or a power of two.
  std::vector<Entry> lane_;
  mutable std::size_t lane_head_ = 0;
  mutable std::size_t lane_size_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace p2panon::sim
