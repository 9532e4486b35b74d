// The benchmark workloads: one ScenarioConfig each, by name.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "harness/scenario.hpp"

namespace perfbench {

using p2panon::harness::ScenarioConfig;

/// Build the named workload's config for replicate seed `seed`; nullopt for
/// an unknown name.
inline std::optional<ScenarioConfig> workload_config(std::string_view name, std::uint64_t seed) {
  namespace sim = p2panon::sim;
  namespace core = p2panon::core;
  ScenarioConfig cfg = p2panon::harness::paper_default_config(seed);
  if (name == "paper-fig") {
    // Fig. 4's point: paper defaults, f = 0.1, Utility Model II.
    cfg.overlay.malicious_fraction = 0.1;
    cfg.good_strategy = core::StrategyKind::kUtilityModelII;
    cfg.lookahead_depth = 3;
    return cfg;
  }
  // The scaled workloads share the scale sweeps' shape: 4 connections per
  // pair, 30 min warm-up, pairs start over 45 min.
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(45.0);
  if (name == "fault-settle") {
    cfg.overlay.node_count = 2000;
    cfg.overlay.degree = 8;
    cfg.pair_count = 1000;
    cfg.fault.link_loss = 0.05;
    cfg.fault.bank.lifecycle = true;
    cfg.fault.bank.claim_loss = 0.1;
    cfg.fault.bank.initiator_crash = 0.2;
    cfg.fault.bank.forwarder_crash = 0.05;
    return cfg;
  }
  if (name == "sharded-k4") {
    cfg.overlay.node_count = 10000;
    cfg.overlay.degree = 10;
    cfg.pair_count = 2500;
    cfg.engine_shards = 4;
    cfg.engine_window = 60.0;
    cfg.view_refresh = 300.0;
    return cfg;
  }
  return std::nullopt;
}

}  // namespace perfbench
