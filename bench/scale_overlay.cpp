// BENCH_sim_engine: how the discrete-event engine scales with overlay size.
//
// Two measurement families, both written to BENCH_sim_engine.json (in
// $P2PANON_CSV_DIR when set, else the cwd):
//
//  1. Scale sweep — full scenarios at N in {40, 200, 1000, 5000} with degree
//     and pair count scaled alongside, in both the synchronous paper shape
//     and fault mode (ack timers, keepalives, crashes — the cancel-heavy
//     workload). Each point reports wall-clock time plus the engine counters
//     surfaced through ScenarioResult: events scheduled / cancelled / fired
//     and the number of callbacks that outgrew EventCallback's inline buffer
//     (expected 0 — the allocation-free claim, checked here at scale).
//
//  2. Cancel-heavy before/after — the fault-mode timer pattern (arm an ack
//     timer per leg, cancel it when the ack arrives, let the stragglers
//     fire) replayed against the current slot-map queue and against the
//     pre-rebuild implementation preserved in legacy_event_queue.hpp, with a
//     pending set proportional to N. Legacy cancel() is O(pending), so the
//     speedup grows with N; the acceptance bar is >= 5x at N = 1000.
//
// Knobs: --smoke runs only the N = 1000 point of parts 1-2 with one
// replicate and a shortened timing pass (the `scale-smoke` ctest entry). It
// prints its rows and writes no BENCH file, so running it never overwrites
// a committed reference run; it gates only on zero heap fallbacks and
// prints the part-2 speedup without gating on it (a wall-clock ratio
// flakes on a loaded box — the full run, in the CI `scale` job, enforces
// the >= 5x bar). --adaptive raises the part-1 replicate cap 4x and stops
// each point once its connection-latency interval is within ±eps
// (relative). Environment:
//   P2PANON_SCALE_MAX_N        largest sweep point (default 5000)
//   P2PANON_SCALE_REPLICATES   replicates per part-1 point (default 2)
// plus the usual P2PANON_SEED / P2PANON_THREADS / P2PANON_CSV_DIR and the
// adaptive knobs P2PANON_ADAPTIVE / P2PANON_EPS.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common.hpp"
#include "legacy_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace p2panon;
using bench::env_size;

template <typename T>
void do_not_optimize(T& value) {
  asm volatile("" : "+m"(value) : : "memory");
}

// --- Part 1: scenario scale sweep -----------------------------------------

struct SweepPoint {
  std::size_t n;
  std::size_t degree;
  std::size_t pairs;
};

// Paper shape is N = 40, d = 5, 100 pairs x 20 connections. The sweep scales
// pairs with N and trades connection count per pair for overlay size so the
// largest point stays minutes, not hours.
constexpr SweepPoint kSweep[] = {
    {40, 5, 20},
    {200, 6, 100},
    {1000, 8, 500},
    {5000, 10, 2500},
};

harness::ScenarioConfig scaled_config(const SweepPoint& p, bool fault_mode) {
  harness::ScenarioConfig cfg = harness::paper_default_config(bench::base_seed());
  cfg.overlay.node_count = static_cast<std::uint32_t>(p.n);
  cfg.overlay.degree = static_cast<std::uint32_t>(p.degree);
  cfg.pair_count = static_cast<std::uint32_t>(p.pairs);
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(45.0);
  if (fault_mode) {
    cfg.fault.link_loss = 0.05;
    cfg.fault.delay_jitter = 0.3;
    cfg.fault.crash_rate_per_hour = 2.0;
    cfg.fault.crash_recovery_mean = sim::minutes(10.0);
    cfg.fault.probe_false_negative = 0.1;
    cfg.async_setup.attempt_deadline = sim::minutes(3.0);
    cfg.data_phase.duration = 90.0;
    cfg.data_phase.keepalive_interval = 10.0;
  }
  return cfg;
}

struct SweepRow {
  std::size_t n = 0;
  const char* mode = "";
  std::size_t replicates = 0;
  double wall_ms = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t completed = 0;
};

SweepRow run_sweep_point(const SweepPoint& p, bool fault_mode, std::size_t replicates,
                         const harness::AdaptiveConfig& adaptive) {
  const harness::ScenarioConfig cfg = scaled_config(p, fault_mode);
  // Adaptive mode: connection latency (relative ±eps) decides when a point
  // has enough replicates; the cap is 4x the configured count. Checkpointing
  // stays off: every point is cheap enough to re-run.
  const std::vector<harness::TrackedScenarioMetric> tracked = {
      {"connection_latency", &harness::ReplicatedResult::connection_latency, 0.0, true},
  };
  harness::AdaptiveConfig point_cfg = adaptive;
  point_cfg.checkpoint.clear();
  const std::size_t planned = adaptive.adaptive ? replicates * 4 : replicates;
  const auto start = std::chrono::steady_clock::now();
  const harness::AdaptiveReplicatedResult res = harness::run_replicated_adaptive(
      cfg, planned, point_cfg, tracked, &bench::shared_pool());
  const harness::ReplicatedResult& r = res.result;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  SweepRow row;
  row.n = p.n;
  row.mode = fault_mode ? "fault" : "sync";
  row.replicates = res.outcome.replicates_used;
  row.wall_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  row.scheduled = r.total_engine_events_scheduled;
  row.cancelled = r.total_engine_events_cancelled;
  row.fired = r.total_engine_events_fired;
  row.heap_allocs = r.total_engine_callback_heap_allocs;
  row.completed = r.total_connections_completed;
  return row;
}

// --- Part 2: cancel-heavy before/after vs the legacy queue ----------------

/// Fault-mode timer pattern over a generic queue: a circular window of
/// `pending` armed ack timers; each step either cancels the oldest (the ack
/// arrived — 7 of 8 steps) or pops the earliest due event (a straggler timer
/// fires), then arms a replacement. Live size stays ~`pending`, which is
/// exactly the variable legacy cancel() is linear in.
template <typename Queue>
class CancelHeavyWorkload {
 public:
  explicit CancelHeavyWorkload(std::size_t pending) : window_(pending) {
    for (std::size_t i = 0; i < pending; ++i) {
      window_[i] = q_.schedule(5.0 + 0.05 * static_cast<double>(i % 97),
                               [this] { ++fired_; });
    }
  }

  void step() {
    const std::size_t idx = step_count_ % window_.size();
    if (step_count_ % 8 != 0) {
      q_.cancel(window_[idx]);  // false when the timer already fired
    } else {
      auto ev = q_.pop();
      now_ = ev.time;
      ev.fn();
    }
    window_[idx] = q_.schedule(now_ + 5.0 + 0.25 * static_cast<double>(step_count_ % 17),
                               [this] { ++fired_; });
    ++step_count_;
  }

  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

 private:
  Queue q_;
  std::vector<sim::EventId> window_;
  sim::Time now_ = 0.0;
  std::uint64_t fired_ = 0;
  std::size_t step_count_ = 0;
};

/// ns/op as the minimum average over independent repetitions (the estimator
/// least contaminated by preemption and frequency transitions, which only
/// ever add time).
template <typename Fn>
double timed_rep_ns(Fn&& fn, std::chrono::milliseconds budget) {
  const auto start = std::chrono::steady_clock::now();
  std::int64_t iters = 0;
  for (;;) {
    for (int i = 0; i < 64; ++i) fn();
    iters += 64;
    if (std::chrono::steady_clock::now() - start > budget) break;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() /
         static_cast<double>(iters);
}

/// Paired measurement with repetitions interleaved (before, after, before,
/// after, ...) so a noisy-neighbour phase biases both sides of the ratio
/// alike rather than whichever side happened to run during it.
template <typename FnBefore, typename FnAfter>
std::pair<double, double> measure_pair_ns(FnBefore&& before, FnAfter&& after,
                                          int reps, std::chrono::milliseconds budget) {
  for (int i = 0; i < 256; ++i) before();  // warmup: caches, page faults,
  for (int i = 0; i < 256; ++i) after();   // steady-state pending sets
  double best_before = 1.0e300;
  double best_after = 1.0e300;
  for (int rep = 0; rep < reps; ++rep) {
    best_before = std::min(best_before, timed_rep_ns(before, budget));
    best_after = std::min(best_after, timed_rep_ns(after, budget));
  }
  return {best_before, best_after};
}

struct BeforeAfter {
  std::size_t n = 0;
  std::size_t pending = 0;
  double before_ns = 0.0;
  double after_ns = 0.0;
  [[nodiscard]] double speedup() const { return before_ns / after_ns; }
};

BeforeAfter run_cancel_heavy(std::size_t n, bool smoke) {
  const std::size_t pending = 2 * n;  // ~2 armed timers per node in fault mode
  CancelHeavyWorkload<p2panon::bench::LegacyEventQueue> legacy(pending);
  CancelHeavyWorkload<sim::EventQueue> current(pending);
  const int reps = smoke ? 3 : 7;
  const auto budget = std::chrono::milliseconds(smoke ? 20 : 60);
  std::uint64_t sink = 0;
  const auto [before_ns, after_ns] = measure_pair_ns(
      [&] {
        legacy.step();
        sink += legacy.fired();
        do_not_optimize(sink);
      },
      [&] {
        current.step();
        sink += current.fired();
        do_not_optimize(sink);
      },
      reps, budget);
  return BeforeAfter{n, pending, before_ns, after_ns};
}

// --- Output ----------------------------------------------------------------

void write_json(const std::vector<SweepRow>& sweep,
                const std::vector<BeforeAfter>& pairs) {
  std::ostringstream out;
  out << "{\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    out << "    {\"n\": " << r.n << ", \"mode\": \"" << r.mode
        << "\", \"replicates\": " << r.replicates << ", \"wall_ms\": " << r.wall_ms
        << ", \"events_scheduled\": " << r.scheduled
        << ", \"events_cancelled\": " << r.cancelled
        << ", \"events_fired\": " << r.fired
        << ", \"callback_heap_allocs\": " << r.heap_allocs
        << ", \"connections_completed\": " << r.completed << "}"
        << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"cancel_heavy\": [\n";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const BeforeAfter& p = pairs[i];
    out << "    {\"n\": " << p.n << ", \"pending\": " << p.pending
        << ", \"before_ns\": " << p.before_ns << ", \"after_ns\": " << p.after_ns
        << ", \"speedup\": " << p.speedup() << "}"
        << (i + 1 < pairs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  bench::write_bench_json("BENCH_sim_engine.json", out.str());
}

}  // namespace

int main(int argc, char** argv) {
  const harness::AdaptiveConfig adaptive = bench::parse_sweep_options(argc, argv, 0.05);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t max_n = env_size("P2PANON_SCALE_MAX_N", 5000);
  const std::size_t replicates =
      smoke ? 1 : env_size("P2PANON_SCALE_REPLICATES", 2);

  std::vector<SweepRow> sweep;
  for (const SweepPoint& p : kSweep) {
    if (smoke ? p.n != 1000 : p.n > max_n) continue;
    for (const bool fault_mode : {false, true}) {
      const SweepRow row = run_sweep_point(p, fault_mode, replicates, adaptive);
      std::cout << "sweep n=" << row.n << " mode=" << row.mode << ": " << row.wall_ms
                << " ms, scheduled=" << row.scheduled << " cancelled=" << row.cancelled
                << " fired=" << row.fired << " heap_allocs=" << row.heap_allocs
                << " completed=" << row.completed << "\n";
      sweep.push_back(row);
    }
  }

  std::vector<BeforeAfter> pairs;
  for (const SweepPoint& p : kSweep) {
    if (smoke ? p.n != 1000 : p.n > max_n) continue;
    const BeforeAfter r = run_cancel_heavy(p.n, smoke);
    std::cout << "cancel-heavy n=" << r.n << " (pending " << r.pending
              << "): legacy " << r.before_ns << " ns/op -> slot map " << r.after_ns
              << " ns/op (x" << r.speedup() << ")\n";
    pairs.push_back(r);
  }

  if (!smoke) write_json(sweep, pairs);

  // Acceptance gates: no scenario callback may fall back to the heap, and —
  // in the full run only — the slot map must beat the legacy queue >= 5x on
  // the cancel-heavy workload at N = 1000.
  int rc = 0;
  for (const BeforeAfter& p : pairs) {
    if (!smoke && p.n == 1000 && p.speedup() < 5.0) {
      std::cerr << "FAIL: cancel-heavy speedup at N=1000 is x" << p.speedup()
                << " (< 5x)\n";
      rc = 1;
    }
  }
  for (const SweepRow& r : sweep) {
    if (r.heap_allocs != 0) {
      std::cerr << "FAIL: " << r.heap_allocs << " callback heap fallbacks at n="
                << r.n << " mode=" << r.mode << "\n";
      rc = 1;
    }
  }
  return rc;
}
