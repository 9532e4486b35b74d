// The benchmark's own drivers: world set-up timing and the traced replicate.
#pragma once

#include <cstdint>
#include <ctime>

#include "harness/scenario.hpp"
#include "trace.hpp"

namespace perfbench {

/// CPU seconds used so far by every thread of this process. End-to-end
/// times are CPU time: on a shared VM, wall time also counts the spans in
/// which the host runs other guests on our virtual CPUs.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process CPU seconds of one world build, split by layer.
struct SetupTimes {
  double total = 0.0;
  double overlay = 0.0;
  double probing = 0.0;
  double bank = 0.0;
};

/// Build the world a replicate builds before its first event, through the
/// same public constructors and seed streams, and time it. Serial configs
/// (engine_shards == 1) build what ScenarioRunner::run builds: net::Overlay,
/// net::ProbingEstimator, then payment::Bank::open_account for every node.
/// Sharded configs build what the sharded paper runner's world constructor
/// builds: node partition, link model, sharded history, settlement plane,
/// node state + neighbour sampling, and sharded probing.
[[nodiscard]] SetupTimes measure_setup(const p2panon::harness::ScenarioConfig& cfg);

/// What the traced driver counts at the layer boundaries it can observe.
struct TracedCounts {
  std::uint64_t churn_notifications = 0;    ///< bench-registered ChurnObserver calls
  std::uint64_t neighbor_replacements = 0;  ///< bench-registered NeighborObserver calls
  std::uint64_t route_decisions = 0;        ///< good-node RoutingStrategy::choose calls
};

/// One serial replicate driven by the benchmark itself: the same public
/// constructors and calls, in the same order, as ScenarioRunner::run, with
/// spans around each layer call. Its result must equal ScenarioRunner::run's
/// for the same config; the benchmark checks that on every traced replicate.
/// Serial configs only (engine_shards == 1, plain Simulator engine).
[[nodiscard]] p2panon::harness::ScenarioResult run_traced(
    const p2panon::harness::ScenarioConfig& cfg, Tracer& tracer, TracedCounts& counts);

}  // namespace perfbench
