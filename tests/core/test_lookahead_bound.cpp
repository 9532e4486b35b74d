// The Utility Model II lookahead stops its last level early: when no edge
// out of `from` can have quality above 1, the depth-1 value is exactly the
// direct-delivery quality 1.0 and the neighbour scan is skipped. These tests
// hold that rule to an independent reference — a naive recursive scan with
// no bound, no cache and no memo — bitwise, with and without
// DecisionResources, in the cases where the bound must give way to the scan:
// history revisit cycles (sigma > 1), weights summing above 1, a suspicion
// tracker, and k = 1 (no selectivity at all). A work-counter gate pins how
// many edge-quality lookups one Model II decision costs.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/decision_scratch.hpp"
#include "core/edge_quality.hpp"
#include "core/path.hpp"
#include "core/routing.hpp"
#include "core/suspicion.hpp"
#include "core/utility.hpp"
#include "fixtures.hpp"

using namespace p2panon::core;
using p2panon::net::kInvalidNode;
using p2panon::net::NodeId;
using p2panon::net::PairId;
using p2ptest::StableWorld;

namespace {

constexpr PairId kPair = 0;
constexpr NodeId kResponder = 19;

/// The unpruned lookahead: every level scans every online neighbour, edge
/// qualities come straight from the evaluator.
double reference_onward(const RoutingContext& ctx, NodeId from, NodeId pred,
                        std::uint32_t depth) {
  if (depth == 0 || from == ctx.responder) return 0.0;
  double best = 0.0;
  bool any = false;
  for (NodeId c : ctx.overlay.neighbors(from)) {
    if (!ctx.overlay.appears_online(c) || c == from) continue;
    const double q =
        ctx.quality.edge_quality(from, c, ctx.responder, ctx.pair, pred, ctx.conn_index);
    const double total = c == ctx.responder ? q : q + reference_onward(ctx, c, from, depth - 1);
    if (!any || total > best) {
      best = total;
      any = true;
    }
  }
  if (!any || 1.0 > best) best = 1.0;  // direct delivery
  return best;
}

double reference_model2(const RoutingContext& ctx, NodeId i, NodeId j, std::uint32_t depth,
                        double q_ij) {
  const double onward = j == ctx.responder ? 0.0 : reference_onward(ctx, j, i, depth - 1);
  return ctx.contract.forwarding_benefit + (q_ij + onward) * ctx.contract.routing_benefit() -
         (participation_cost(ctx, i) + transmission_cost(ctx, i, j));
}

/// How the depth-1 calls of one sweep were answered (read off the cache's
/// lookup counter: the bound answers without a single edge lookup).
struct Tally {
  int pruned = 0;
  int scanned = 0;
  double max_depth1 = 0.0;  ///< largest reference depth-1 value seen
};

/// Compare best_onward_quality (depths 1..3, every predecessor that can
/// occur plus kInvalidNode) and model2_utility_with_q (horizons 1..3) with
/// the reference, bitwise, on the plain and the cached path.
Tally sweep(const StableWorld& w, const EdgeQualityEvaluator& quality, std::uint32_t k) {
  DecisionResources res;
  const RoutingContext plain{w.overlay, quality, Contract{}, kPair, k, kResponder, nullptr};
  const RoutingContext cached{w.overlay, quality, Contract{}, kPair, k, kResponder, &res};
  Tally t;
  for (NodeId from = 0; from < w.overlay.size(); ++from) {
    std::vector<NodeId> preds{kInvalidNode};
    for (NodeId p = 0; p < w.overlay.size(); ++p) {
      if (p != from) preds.push_back(p);
    }
    for (NodeId pred : preds) {
      for (std::uint32_t depth : {1u, 2u, 3u}) {
        const double want = reference_onward(plain, from, pred, depth);
        EXPECT_EQ(want, best_onward_quality(plain, from, pred, depth))
            << "plain from=" << from << " pred=" << pred << " depth=" << depth;
        const std::uint64_t before = res.edge_cache.hits() + res.edge_cache.misses();
        double got = 0.0;
        {
          DecisionScope scope(&res);
          got = best_onward_quality(cached, from, pred, depth);
        }
        EXPECT_EQ(want, got) << "cached from=" << from << " pred=" << pred
                             << " depth=" << depth;
        if (depth == 1 && from != kResponder) {
          const bool scanned = res.edge_cache.hits() + res.edge_cache.misses() != before;
          ++(scanned ? t.scanned : t.pruned);
          if (want > t.max_depth1) t.max_depth1 = want;
        }
      }
    }
    for (NodeId j : w.overlay.neighbors(from)) {
      if (from == kResponder) break;
      for (std::uint32_t depth : {1u, 2u, 3u}) {
        const double q = quality.edge_quality(from, j, kResponder, kPair, kInvalidNode, k);
        const double want = reference_model2(plain, from, j, depth, q);
        EXPECT_EQ(want, model2_utility_with_q(plain, from, j, depth, q))
            << "plain i=" << from << " j=" << j << " depth=" << depth;
        DecisionScope scope(&res);
        EXPECT_EQ(want, model2_utility_with_q(cached, from, j, depth, q))
            << "cached i=" << from << " j=" << j << " depth=" << depth;
      }
    }
  }
  return t;
}

/// Two mutually adjacent nodes, neither the responder.
std::pair<NodeId, NodeId> adjacent_pair(const StableWorld& w) {
  for (NodeId a = 0; a < w.overlay.size(); ++a) {
    if (a == kResponder) continue;
    for (NodeId b : w.overlay.neighbors(a)) {
      if (b == kResponder || b == a) continue;
      for (NodeId back : w.overlay.neighbors(b)) {
        if (back == a) return {a, b};
      }
    }
  }
  ADD_FAILURE() << "no mutually adjacent pair in the fixture overlay";
  return {0, 0};
}

/// Record connections 1..k-1 along x -> a -> b -> R, so a holds k-1 entries
/// for (pair, x): sigma toward b is exactly 1 and the bound sits at w_s + w_a.
void record_straight_history(StableWorld& w, std::uint32_t k) {
  const auto [a, b] = adjacent_pair(w);
  const NodeId x = w.overlay.neighbors(a)[0] == b ? w.overlay.neighbors(a)[1]
                                                  : w.overlay.neighbors(a)[0];
  for (std::uint32_t c = 1; c < k; ++c) w.history.record_path(kPair, c, {x, a, b, kResponder});
}

}  // namespace

TEST(LookaheadBound, RevisitCycleForcesTheScan) {
  // One connection whose path loops a -> b -> a -> b -> a -> b: b holds three
  // entries for (pair, a), two of them toward a. At k = 2 sigma(b -> a) = 2,
  // so the depth-1 value from b (predecessor a) is above 1 and only the scan
  // can find it.
  StableWorld w(11);
  w.warmup();
  const auto [a, b] = adjacent_pair(w);
  w.history.record_path(kPair, 1, {0, a, b, a, b, a, b, kResponder});
  ASSERT_GT(w.history.at(b).position_count(kPair, a), 1u) << "position_count must exceed k - 1";
  const Tally t = sweep(w, w.quality, 2);
  EXPECT_GT(t.scanned, 0);
  EXPECT_GT(t.pruned, 0);
  EXPECT_GT(t.max_depth1, 1.0) << "a pruned answer (exactly 1.0) would have been wrong";
}

TEST(LookaheadBound, WeightsAboveOneForceTheScan) {
  // QualityWeights::valid() admits sums up to 1.001. With sigma = 1 on an
  // edge the bound then sits above 1, so the scan must run; the same world
  // under the default 0.5 + 0.5 weights is pruned everywhere.
  StableWorld w(11);
  w.warmup();
  constexpr std::uint32_t k = 6;
  record_straight_history(w, k);
  const EdgeQualityEvaluator heavy(w.probing, w.history, QualityWeights{0.5009, 0.5});
  ASSERT_TRUE(heavy.weights().valid());
  const Tally over = sweep(w, heavy, k);
  EXPECT_GT(over.scanned, 0);
  EXPECT_GT(over.pruned, 0);
  const Tally exact = sweep(w, w.quality, k);
  EXPECT_EQ(exact.scanned, 0);
  EXPECT_GT(exact.pruned, 0);
}

TEST(LookaheadBound, SuspicionPenaltiesKeepTheBoundExact) {
  // The suspect multiplier scales availability by penalty^count. The
  // tracker rejects penalties above 1 (an assertion in its constructor), so
  // the factor never exceeds 1 and the fault-free bound still holds; the
  // penalty-1 tracker is the edge of that range.
  for (const double penalty : {0.5, 1.0}) {
    SCOPED_TRACE(penalty);
    StableWorld w(11);
    w.warmup();
    constexpr std::uint32_t k = 6;
    record_straight_history(w, k);
    SuspicionTracker suspicion(w.overlay.size(), penalty);
    for (NodeId v = 0; v < w.overlay.size(); v += 3) {
      for (NodeId n = 0; n <= v % 4; ++n) suspicion.record_timeout(v);
    }
    const EdgeQualityEvaluator quality(w.probing, w.history, QualityWeights{}, &suspicion);
    EXPECT_EQ(quality.edge_quality_ceiling(0, k), 0.5);
    const Tally t = sweep(w, quality, k);
    EXPECT_GT(t.pruned, 0);
  }
}

TEST(LookaheadBound, FirstConnectionHasNoSelectivity) {
  // k = 1: sigma is 0 whatever the history holds (even a revisit cycle), so
  // the bound is w_a and every depth-1 level is pruned.
  StableWorld w(11);
  w.warmup();
  const auto [a, b] = adjacent_pair(w);
  w.history.record_path(kPair, 1, {0, a, b, a, b, a, b, kResponder});
  EXPECT_EQ(w.quality.edge_quality_ceiling(3, 1), 0.5);
  const Tally t = sweep(w, w.quality, 1);
  EXPECT_EQ(t.scanned, 0);
  EXPECT_GT(t.pruned, 0);
}

TEST(LookaheadBound, NegativeWeightsNeverPrune) {
  // The bound is only claimed for non-negative weights; outside that range
  // the ceiling is +inf and the scan always runs.
  StableWorld w(11);
  w.warmup();
  const EdgeQualityEvaluator odd(w.probing, w.history, QualityWeights{-0.5, 1.5});
  EXPECT_FALSE(odd.edge_quality_ceiling(0, 2) <= 1.0);
  const Tally t = sweep(w, odd, 2);
  EXPECT_EQ(t.pruned, 0);
  EXPECT_GT(t.scanned, 0);
}

namespace {

/// Model II with a count of its decisions and of the edge-quality lookups
/// they made.
class CountingModel2 final : public RoutingStrategy {
 public:
  explicit CountingModel2(const EdgeQualityCache& cache) : cache_(cache) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "counting-model-2"; }
  [[nodiscard]] HopChoice choose(const RoutingContext& ctx, NodeId self, NodeId pred,
                                 std::span<const NodeId> candidates,
                                 p2panon::sim::rng::Stream& stream) const override {
    const std::uint64_t before = cache_.hits() + cache_.misses();
    const HopChoice c = inner_.choose(ctx, self, pred, candidates, stream);
    lookups_ += cache_.hits() + cache_.misses() - before;
    ++decisions_;
    return c;
  }

  [[nodiscard]] std::uint64_t decisions() const noexcept { return decisions_; }
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }

 private:
  const EdgeQualityCache& cache_;
  UtilityModelIIRouting inner_{3};
  mutable std::uint64_t decisions_ = 0;
  mutable std::uint64_t lookups_ = 0;
};

}  // namespace

TEST(LookaheadBound, PaperFigLookupsPerDecisionGate) {
  // The paper-fig shape: N = 40, degree 5, f = 0.1, Model II at depth 3,
  // 20 connections per pair with history recorded after each. Without the
  // last-level bound a decision here makes about 119 edge-quality lookups;
  // with it, about 28.
  StableWorld w(5, 0.1, 40, 5);
  w.warmup();
  DecisionResources res;
  CountingModel2 model2(res.edge_cache);
  const StrategyAssignment strategies(w.overlay, model2);
  const PathBuilder builder(w.overlay, w.quality, {}, &res);
  auto picks = w.root.child("gate-pairs");
  for (PairId pair = 0; pair < 20; ++pair) {
    const auto initiator = static_cast<NodeId>(picks.below(w.overlay.size()));
    auto responder = static_cast<NodeId>(picks.below(w.overlay.size() - 1));
    if (responder >= initiator) ++responder;
    for (std::uint32_t k = 1; k <= 20; ++k) {
      auto stream = w.root.child("gate-path", (std::uint64_t{pair} << 32) | k);
      const BuiltPath path =
          builder.build(pair, k, initiator, responder, Contract{}, strategies, stream);
      w.history.record_path(pair, k, path.nodes);
    }
  }
  ASSERT_GT(model2.decisions(), 400u);
  const double per_decision =
      static_cast<double>(model2.lookups()) / static_cast<double>(model2.decisions());
  RecordProperty("lookups_per_decision", std::to_string(per_decision));
  EXPECT_LE(per_decision, 40.0) << model2.lookups() << " lookups over " << model2.decisions()
                                << " decisions";
}
