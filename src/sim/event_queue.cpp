#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace p2panon::sim {

std::uint32_t EventQueue::acquire_slot() {
  std::uint32_t idx;
  if (free_head_ != kNoFreeSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    assert(slots_.size() < kNoFreeSlot && "slot index space exhausted");
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  ++s.gen;
  if (s.gen == 0) ++s.gen;  // gen 0 never names a live event (id 0 is invalid)
  s.live = true;
  return idx;
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.live = false;
  s.fn.reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

EventQueue::Entry EventQueue::admit(Time at, EventFn fn) {
  assert(fn && "scheduling an empty event");
  ++stats_.scheduled;
  if (fn.uses_heap()) ++stats_.callback_heap_allocs;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  ++live_count_;
  return Entry{at, next_seq_++, slot, slots_[slot].gen};
}

EventId EventQueue::schedule(Time at, EventFn fn) {
  const Entry e = admit(at, std::move(fn));
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return make_id(e.slot, e.gen);
}

EventId EventQueue::schedule_fifo(Time at, EventFn fn) {
  assert((lane_size_ == 0 ||
          at >= lane_[(lane_head_ + lane_size_ - 1) & (lane_.size() - 1)].time) &&
         "FIFO lane times must not decrease");
  const Entry e = admit(at, std::move(fn));
  lane_push(e);
  return make_id(e.slot, e.gen);
}

void EventQueue::lane_push(const Entry& e) {
  if (lane_size_ == lane_.size()) {
    // Full (or never used): double, unrolling the ring to start at 0.
    std::vector<Entry> grown(lane_.empty() ? 64 : 2 * lane_.size());
    for (std::size_t i = 0; i < lane_size_; ++i) {
      grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    }
    lane_.swap(grown);
    lane_head_ = 0;
  }
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = e;
  ++lane_size_;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return false;  // fired, cancelled, or recycled
  release_slot(slot);
  --live_count_;
  ++stats_.cancelled;
  // The heap or lane entry stays behind; earliest() discards it when it
  // surfaces (its generation no longer matches the slot's).
  return true;
}

void EventQueue::lane_pop_front() const noexcept {
  lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
  --lane_size_;
}

const EventQueue::Entry* EventQueue::earliest() const {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  while (lane_size_ != 0 && !entry_live(lane_front())) lane_pop_front();
  if (lane_size_ == 0) return heap_.empty() ? nullptr : &heap_.front();
  if (heap_.empty() || Later{}(heap_.front(), lane_front())) return &lane_front();
  return &heap_.front();
}

Time EventQueue::next_time() const noexcept {
  const Entry* e = earliest();
  return e == nullptr ? kTimeInfinity : e->time;
}

bool EventQueue::pop_until(Time until, Popped& out) {
  const Entry* top = earliest();
  if (top == nullptr || top->time > until) return false;
  const Entry e = *top;
  if (!heap_.empty() && top == &heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  } else {
    lane_pop_front();
  }
  out.time = e.time;
  out.id = make_id(e.slot, e.gen);
  out.fn = std::move(slots_[e.slot].fn);
  // Free the slot before the caller runs the callback: the event is spent,
  // so cancel() of its own id from inside the callback reports false.
  release_slot(e.slot);
  --live_count_;
  ++stats_.fired;
  return true;
}

EventQueue::Popped EventQueue::pop() {
  Popped out;
  [[maybe_unused]] const bool popped = pop_until(kTimeInfinity, out);
  assert(popped && "pop() on empty EventQueue");
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  lane_head_ = 0;
  lane_size_ = 0;
  // Rebuild the free list over every slot. Generations are preserved (and
  // bumped on reuse), so ids handed out before clear() can never alias a
  // post-clear event.
  free_head_ = kNoFreeSlot;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    s.live = false;
    s.fn.reset();
    s.next_free = free_head_;
    free_head_ = i;
  }
  live_count_ = 0;
  next_seq_ = 0;
  stats_ = Stats{};
}

}  // namespace p2panon::sim
