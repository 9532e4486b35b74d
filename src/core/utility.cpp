#include "core/utility.hpp"

#include <algorithm>
#include <cassert>

namespace p2panon::core {

double model1_utility_with_q(const RoutingContext& ctx, net::NodeId i, net::NodeId j,
                             double q_ij) {
  return ctx.contract.forwarding_benefit + q_ij * ctx.contract.routing_benefit() -
         (participation_cost(ctx, i) + transmission_cost(ctx, i, j));
}

double model1_utility(const RoutingContext& ctx, net::NodeId i, net::NodeId pred, net::NodeId j) {
  return model1_utility_with_q(ctx, i, j, ctx.edge_q(i, j, pred));
}

double best_onward_quality(const RoutingContext& ctx, net::NodeId from, net::NodeId pred,
                           std::uint32_t depth) {
  if (depth == 0 || from == ctx.responder) return 0.0;

  // Memoise per (from, canonical pred, depth) within the current decision.
  // A predecessor with no stored history at `from` yields sigma == +0.0
  // toward every successor, so all such predecessors share one subtree
  // value bitwise (position_count is the O(1) witness). The canonical
  // predecessor is resolved once per tree level and handed to the per-edge
  // lookups below, which then skip their own canonicalisation probe.
  EdgeQualityCache* cache = ctx.resources != nullptr ? &ctx.resources->edge_cache : nullptr;
  DecisionScratch* scratch = ctx.resources != nullptr && ctx.resources->scratch.armed()
                                 ? &ctx.resources->scratch
                                 : nullptr;
  EdgeQualityCache::NodeFacts facts;
  if (cache != nullptr) {
    facts = cache->node_facts(ctx.quality, from, ctx.pair, pred);
  }

  // Last level: the value is max(1.0, max_c q(from, c)) — every successor
  // term is q + 0.0, and direct delivery is a quality-1 edge. When no edge
  // out of `from` can beat 1 that maximum is exactly 1.0, so skip the scan.
  // Both paths feed the bound the same position_count, so they stay bitwise
  // equal; whenever the bound exceeds 1 the scan below decides.
  if (depth == 1) {
    const std::size_t position_count =
        cache != nullptr ? facts.position_count
                         : ctx.quality.history().at(from).position_count(ctx.pair, pred);
    if (ctx.quality.edge_quality_ceiling(position_count, ctx.conn_index) <= 1.0) return 1.0;
  }

  PackedKey key;
  if (scratch != nullptr) {
    key = PackedKey::of(from, facts.canonical, depth, kScratchLookahead);
    double cached = 0.0;
    if (scratch->lookup(key, &cached)) return cached;
  }

  double best = 0.0;
  bool any = false;
  for (net::NodeId c : ctx.overlay.neighbors(from)) {
    if (!ctx.overlay.appears_online(c) || c == from) continue;
    const double q =
        cache != nullptr
            ? cache->get_or_compute_at(ctx.quality, facts, c, ctx.responder, ctx.conn_index)
            : ctx.quality.edge_quality(from, c, ctx.responder, ctx.pair, pred, ctx.conn_index);
    const double total =
        c == ctx.responder ? q : q + best_onward_quality(ctx, c, from, depth - 1);
    if (!any || total > best) {
      best = total;
      any = true;
    }
  }
  // Direct delivery to the responder is always available (quality-1 edge).
  const double direct = 1.0;
  if (!any || direct > best) best = direct;

  if (scratch != nullptr) scratch->store(key, best);
  return best;
}

double model2_utility_with_q(const RoutingContext& ctx, net::NodeId i, net::NodeId j,
                             std::uint32_t lookahead_depth, double q_ij) {
  assert(lookahead_depth >= 1);
  const double onward =
      j == ctx.responder ? 0.0 : best_onward_quality(ctx, j, i, lookahead_depth - 1);
  const double path_q = q_ij + onward;
  return ctx.contract.forwarding_benefit + path_q * ctx.contract.routing_benefit() -
         (participation_cost(ctx, i) + transmission_cost(ctx, i, j));
}

double model2_utility(const RoutingContext& ctx, net::NodeId i, net::NodeId pred, net::NodeId j,
                      std::uint32_t lookahead_depth) {
  return model2_utility_with_q(ctx, i, j, lookahead_depth, ctx.edge_q(i, j, pred));
}

bool would_participate(const RoutingContext& ctx, net::NodeId j) {
  // Cheapest usable outgoing link: any online neighbour or direct delivery.
  double min_ct = transmission_cost(ctx, j, ctx.responder);
  for (net::NodeId c : ctx.overlay.neighbors(j)) {
    if (!ctx.overlay.appears_online(c) || c == j) continue;
    min_ct = std::min(min_ct, transmission_cost(ctx, j, c));
  }
  return ctx.contract.forwarding_benefit > participation_cost(ctx, j) + min_ct;
}

}  // namespace p2panon::core
