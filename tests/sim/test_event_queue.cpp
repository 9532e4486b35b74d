#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using p2panon::sim::EventQueue;
using p2panon::sim::kTimeInfinity;

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, MixedEqualAndDistinctTimes) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(20); });
  q.schedule(1.0, [&] { order.push_back(10); });
  q.schedule(2.0, [&] { order.push_back(21); });
  q.schedule(1.0, [&] { order.push_back(11); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21}));
}

TEST(EventQueue, NextTimeReflectsEarliestLive) {
  EventQueue q;
  auto id = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  auto id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  auto id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue q;
  auto id = q.schedule(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelMiddleOfThree) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  auto mid = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(mid));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PoppedCarriesTimeAndId) {
  EventQueue q;
  auto id = q.schedule(4.5, [] {});
  auto popped = q.pop();
  EXPECT_DOUBLE_EQ(popped.time, 4.5);
  EXPECT_EQ(popped.id, id);
  ASSERT_TRUE(popped.fn);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  // Deterministic pseudo-random times; verify global ordering on pop.
  std::uint64_t state = 9;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double t = static_cast<double>(state % 1000);
    q.schedule(t, [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    auto e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, InterleavedCancelStress) {
  EventQueue q;
  std::vector<p2panon::sim::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i % 10), [&] { ++fired; }));
  }
  // Cancel every third event.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired + cancelled, 100);
  EXPECT_EQ(cancelled, 34);
}

// --- The exact cancellation semantics documented in event_queue.hpp.

TEST(EventQueueCancelSemantics, CancelInsideOwnCallbackReturnsFalse) {
  // Once pop() has handed an event out, it is spent — even while its own
  // callback is still on the stack (the "mid-pop() window").
  EventQueue q;
  p2panon::sim::EventId self = p2panon::sim::kInvalidEventId;
  bool cancel_result = true;
  self = q.schedule(1.0, [&] { cancel_result = q.cancel(self); });
  q.pop().fn();
  EXPECT_FALSE(cancel_result);
}

TEST(EventQueueCancelSemantics, CancelOtherFromCallbackPreventsIt) {
  EventQueue q;
  bool victim_fired = false;
  bool cancel_result = false;
  const auto victim = q.schedule(2.0, [&] { victim_fired = true; });
  q.schedule(1.0, [&] { cancel_result = q.cancel(victim); });
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(cancel_result);
  EXPECT_FALSE(victim_fired);
}

TEST(EventQueueCancelSemantics, ScheduleFromCallbackRuns) {
  EventQueue q;
  bool late_fired = false;
  q.schedule(1.0, [&] { q.schedule(2.0, [&] { late_fired = true; }); });
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(late_fired);
}

TEST(EventQueueCancelSemantics, StaleIdAfterSlotReuseReturnsFalse) {
  // A fired event's slot may be recycled by a later schedule(); the old id
  // must keep answering false and must never cancel the new occupant.
  EventQueue q;
  const auto old_id = q.schedule(1.0, [] {});
  q.pop();
  bool fired = false;
  const auto new_id = q.schedule(2.0, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);  // generation distinguishes the reuse
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueCancelSemantics, PreClearIdsStayDeadAfterClear) {
  EventQueue q;
  const auto id = q.schedule(1.0, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(id));
  bool fired = false;
  q.schedule(1.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(id));  // still the pre-clear generation
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueCancelSemantics, CancelledSlotReusedKeepsOrdering) {
  // Reusing a cancelled event's slot must not disturb (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const auto dead = q.schedule(1.0, [&] { order.push_back(-1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  EXPECT_TRUE(q.cancel(dead));
  q.schedule(1.0, [&] { order.push_back(3); });  // likely reuses dead's slot
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueStats, CountsScheduledCancelledFired) {
  EventQueue q;
  const auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // failed cancels are not counted
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(q.stats().scheduled, 3u);
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().fired, 2u);
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
}

TEST(EventQueueStats, OversizedCaptureCountsAsHeapFallback) {
  EventQueue q;
  struct Big {
    char bytes[p2panon::sim::EventCallback::kInlineSize + 1] = {};
  } big;
  q.schedule(1.0, [big] { (void)big; });
  EXPECT_EQ(q.stats().callback_heap_allocs, 1u);
  q.pop().fn();
}

TEST(EventQueueStress, MillionEventScheduleCancelPop) {
  // ~1M events through interleaved schedule/cancel/pop with a pending set in
  // the thousands — the cancel-heavy fault-mode shape. With the old
  // O(pending) cancel this test is quadratic; with the slot map it is
  // effectively instant, so a ctest timeout doubles as a complexity guard.
  EventQueue q;
  constexpr int kEvents = 1'000'000;
  std::uint64_t rng = 42;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  std::vector<p2panon::sim::EventId> pending_ids;
  pending_ids.reserve(4096);
  double now = 0.0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  int scheduled = 0;
  while (scheduled < kEvents || !q.empty()) {
    const std::uint64_t r = next();
    const auto op = static_cast<int>(r % 4);
    if (op == 1 && !pending_ids.empty()) {
      // Cancel a pseudo-random previously issued id (may already be spent).
      if (q.cancel(pending_ids[r % pending_ids.size()])) ++cancelled;
    } else if (op >= 2 && scheduled < kEvents) {
      const double at = now + 1.0 + static_cast<double>(r % 1000);
      pending_ids.push_back(q.schedule(at, [&fired] { ++fired; }));
      ++scheduled;
    } else if (!q.empty()) {
      auto ev = q.pop();
      EXPECT_GE(ev.time, now);
      now = ev.time;
      ev.fn();
    }
    if (pending_ids.size() >= 4096) pending_ids.clear();
  }
  EXPECT_EQ(fired + cancelled, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(q.stats().scheduled, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(q.stats().fired, fired);
  EXPECT_EQ(q.stats().cancelled, cancelled);
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
  EXPECT_GT(cancelled, static_cast<std::uint64_t>(kEvents) / 20);
}

// --- The FIFO timer lane: same order, ids, cancel semantics and Stats as
// the heap alone.

TEST(EventQueueFifoLane, RandomInterleavingMatchesHeapOnlyQueue) {
  // Drive a lane-using queue and a heap-only reference with the same random
  // mix of heap schedules, lane schedules (fixed-period re-arms, times
  // never decrease), cancels, pops and bounded pops. Every id, every pop
  // and every answer must agree.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue lane, ref;
    std::vector<int> lane_log, ref_log;
    std::vector<p2panon::sim::EventId> ids;
    std::uint64_t rng = seed;
    auto next = [&rng] {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      return rng >> 33;
    };
    double now = 0.0;
    double last_fifo = 0.0;
    const double period = 10.0 + static_cast<double>(seed % 3);
    int tag = 0;
    for (int op = 0; op < 20'000; ++op) {
      const std::uint64_t r = next();
      switch (r % 6) {
        case 0: {  // heap schedule, sometimes tied with a lane time
          const double at = (r & 64) != 0 ? last_fifo : now + static_cast<double>(r % 37);
          const int t = tag++;
          const auto a = lane.schedule(std::max(at, now), [&lane_log, t] { lane_log.push_back(t); });
          const auto b = ref.schedule(std::max(at, now), [&ref_log, t] { ref_log.push_back(t); });
          ASSERT_EQ(a, b);
          ids.push_back(a);
          break;
        }
        case 1:
        case 2: {  // lane re-arm at now + period
          const double at = now + period;
          ASSERT_GE(at, last_fifo);
          last_fifo = at;
          const int t = tag++;
          const auto a = lane.schedule_fifo(at, [&lane_log, t] { lane_log.push_back(t); });
          const auto b = ref.schedule(at, [&ref_log, t] { ref_log.push_back(t); });
          ASSERT_EQ(a, b);
          ids.push_back(a);
          break;
        }
        case 3: {  // cancel a random issued id (may be spent already)
          if (ids.empty()) break;
          const auto id = ids[r % ids.size()];
          ASSERT_EQ(lane.cancel(id), ref.cancel(id));
          break;
        }
        case 4: {  // pop
          ASSERT_EQ(lane.empty(), ref.empty());
          if (lane.empty()) break;
          auto a = lane.pop();
          auto b = ref.pop();
          ASSERT_EQ(a.time, b.time);
          ASSERT_EQ(a.id, b.id);
          now = a.time;
          a.fn();
          b.fn();
          break;
        }
        default: {  // bounded pop, as Simulator::run_until drives it
          const double until = now + static_cast<double>(r % 7);
          EventQueue::Popped a;
          const bool got = lane.pop_until(until, a);
          ASSERT_EQ(got, ref.next_time() <= until);
          if (!got) break;
          auto b = ref.pop();
          ASSERT_EQ(a.time, b.time);
          ASSERT_EQ(a.id, b.id);
          now = a.time;
          a.fn();
          b.fn();
          break;
        }
      }
      ASSERT_EQ(lane.size(), ref.size());
      ASSERT_EQ(lane.next_time(), ref.next_time());
      if (ids.size() > 512) ids.erase(ids.begin(), ids.begin() + 256);
    }
    while (!ref.empty()) {
      auto a = lane.pop();
      auto b = ref.pop();
      ASSERT_EQ(a.id, b.id);
      a.fn();
      b.fn();
    }
    EXPECT_TRUE(lane.empty());
    EXPECT_EQ(lane_log, ref_log);
    EXPECT_EQ(lane.stats().scheduled, ref.stats().scheduled);
    EXPECT_EQ(lane.stats().cancelled, ref.stats().cancelled);
    EXPECT_EQ(lane.stats().fired, ref.stats().fired);
    EXPECT_EQ(lane.stats().callback_heap_allocs, ref.stats().callback_heap_allocs);
  }
}

TEST(EventQueueFifoLane, EqualTimesKeepInsertionOrderAcrossHeapAndLane) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_fifo(5.0, [&] { order.push_back(0); });
  q.schedule(5.0, [&] { order.push_back(1); });
  q.schedule_fifo(5.0, [&] { order.push_back(2); });
  q.schedule(4.0, [&] { order.push_back(3); });
  q.schedule_fifo(6.0, [&] { order.push_back(4); });
  q.schedule(5.0, [&] { order.push_back(5); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2, 5, 4}));
}

TEST(EventQueueFifoLane, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const auto id = q.schedule_fifo(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueFifoLane, DoubleCancelReturnsFalseAndSkipsTheEntry) {
  EventQueue q;
  std::vector<int> order;
  const auto id = q.schedule_fifo(1.0, [&] { order.push_back(1); });
  q.schedule_fifo(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(q.stats().cancelled, 1u);
}

TEST(EventQueueFifoLane, CancelInsideOwnCallbackReturnsFalse) {
  EventQueue q;
  p2panon::sim::EventId self = p2panon::sim::kInvalidEventId;
  bool cancel_result = true;
  self = q.schedule_fifo(1.0, [&] { cancel_result = q.cancel(self); });
  q.pop().fn();
  EXPECT_FALSE(cancel_result);
}

TEST(EventQueueFifoLane, PreClearIdsStayDeadAfterClear) {
  EventQueue q;
  const auto id = q.schedule_fifo(7.0, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(id));
  bool fired = false;
  // After clear() the lane is empty, so an earlier time is allowed again.
  const auto fresh = q.schedule_fifo(1.0, [&] { fired = true; });
  EXPECT_NE(fresh, id);
  EXPECT_FALSE(q.cancel(id));  // still the pre-clear generation
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueFifoLane, GrowsPastItsInitialCapacityInOrder) {
  // More pending lane entries than the first ring allocation holds, with
  // the ring's head mid-buffer when it grows.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 40; ++i) q.schedule_fifo(i, [&order, i] { order.push_back(i); });
  for (int i = 0; i < 30; ++i) q.pop().fn();
  for (int i = 40; i < 300; ++i) q.schedule_fifo(i, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[i], i);
}
