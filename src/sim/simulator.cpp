#include "sim/simulator.hpp"

#include <cassert>

namespace p2panon::sim {

EventId Simulator::schedule_in(Time delay, EventFn fn) {
  assert(delay >= 0.0 && "negative delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  assert(at >= now_ && "scheduling into the past");
  return queue_.schedule(at, std::move(fn));
}

EventId Simulator::schedule_fifo_in(Time delay, EventFn fn) {
  assert(delay >= 0.0 && "negative delay");
  return queue_.schedule_fifo(now_ + delay, std::move(fn));
}

bool Simulator::step_until(Time until) {
  EventQueue::Popped ev;
  if (!queue_.pop_until(until, ev)) return false;
  assert(ev.time >= now_);
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

bool Simulator::step() { return step_until(kTimeInfinity); }

Time Simulator::run_until(Time until) {
  while (step_until(until)) {
  }
  if (now_ < until) now_ = until;
  return now_;
}

Time Simulator::run_to_completion() {
  while (step()) {
  }
  return now_;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0.0;
  executed_ = 0;
}

}  // namespace p2panon::sim
