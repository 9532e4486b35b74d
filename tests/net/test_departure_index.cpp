// Differential test of the overlay's departure index: the in-edge lists and
// the Fenwick tree over the non-departed flags must make the same neighbour
// replacements, in the same observer order, as a scan of every row with an
// explicit candidate list — through random churn, forced joins, silent
// crashes and recoveries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/overlay.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

using namespace p2panon::net;
namespace sim = p2panon::sim;

namespace {

struct Replacement {
  NodeId owner;
  NodeId old_neighbor;
  NodeId fresh;
  bool operator==(const Replacement&) const = default;
};

struct ReferenceOutcome {
  std::vector<Replacement> calls;
  bool had_no_candidate = false;
};

// The full-scan replacement the index stands in for: every row in id order,
// every slot in order; candidates are the non-departed nodes other than the
// owner, the departed node and the owner's current neighbours, listed in
// ascending id order, and one draw picks among them.
ReferenceOutcome reference_departure(std::vector<NodeId>& table, const Overlay& o,
                                     NodeId departed, sim::rng::Stream root) {
  ReferenceOutcome out;
  const std::size_t n = o.size();
  const std::size_t d = o.config().degree;
  for (NodeId s = 0; s < n; ++s) {
    if (s == departed) continue;
    const auto row_begin = table.begin() + static_cast<std::ptrdiff_t>(s * d);
    const auto row_end = row_begin + static_cast<std::ptrdiff_t>(d);
    for (auto nb = row_begin; nb != row_end; ++nb) {
      if (*nb != departed) continue;
      std::vector<NodeId> candidates;
      for (NodeId c = 0; c < n; ++c) {
        if (c == s || c == departed || o.node(c).departed) continue;
        if (std::find(row_begin, row_end, c) != row_end) continue;
        candidates.push_back(c);
      }
      if (candidates.empty()) {
        out.had_no_candidate = true;
        continue;
      }
      auto pick = root.child("replacement", (static_cast<std::uint64_t>(s) << 32) ^
                                                o.churn_events());
      const NodeId fresh = candidates[pick.below(candidates.size())];
      *nb = fresh;
      out.calls.push_back({s, departed, fresh});
    }
  }
  return out;
}

// The index must equal one rebuilt from the neighbour table and the flags.
void expect_index_matches_rebuild(const Overlay& o) {
  const std::size_t n = o.size();
  std::vector<std::vector<NodeId>> owners(n);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId nb : o.neighbors(s)) owners[nb].push_back(s);
  }
  std::size_t non_departed = 0;
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(o.in_neighbors(v), owners[v]) << "in-edge list of node " << v;
    ASSERT_EQ(o.non_departed_before(v), non_departed) << "Fenwick prefix below " << v;
    if (!o.node(v).departed) ++non_departed;
  }
  ASSERT_EQ(o.non_departed_before(static_cast<NodeId>(n)), non_departed);
}

struct RunSummary {
  int departures = 0;
  int replacements = 0;
  int revivals = 0;
  bool had_no_candidate = false;
};

RunSummary run_differential(const OverlayConfig& cfg, std::uint64_t seed, int steps) {
  RunSummary summary;
  sim::Simulator simulator;
  const sim::rng::Stream root(seed);
  Overlay o(cfg, simulator, root);
  std::vector<Replacement> calls;
  o.add_neighbor_observer([&calls](NodeId s, NodeId old_nb, NodeId fresh, sim::Time) {
    calls.push_back({s, old_nb, fresh});
  });
  o.start();
  sim::rng::Stream ops = root.child("test-ops");
  const std::size_t n = o.size();

  for (int step = 0; step < steps; ++step) {
    const std::vector<NodeId> before = o.state().neighbors;
    std::vector<bool> was_departed(n);
    for (NodeId v = 0; v < n; ++v) was_departed[v] = o.node(v).departed;
    calls.clear();

    if (ops.below(4) == 0) {
      // Out-of-band operation on a random node; force_online prefers a
      // departed node, which brings it back into the candidate pool.
      auto id = static_cast<NodeId>(ops.below(n));
      switch (ops.below(3)) {
        case 0: {
          std::vector<NodeId> gone;
          for (NodeId v = 0; v < n; ++v) {
            if (was_departed[v]) gone.push_back(v);
          }
          if (!gone.empty()) {
            id = gone[ops.below(gone.size())];
            ++summary.revivals;
          }
          o.force_online(id);
          break;
        }
        case 1:
          o.crash(id);
          break;
        default:
          o.recover(id);
          break;
      }
    } else if (!simulator.step()) {
      break;
    }

    NodeId departed = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (o.node(v).departed && !was_departed[v]) {
        EXPECT_EQ(departed, kInvalidNode) << "two departures in one event";
        departed = v;
      }
    }
    std::vector<NodeId> expected = before;
    if (departed != kInvalidNode) {
      ++summary.departures;
      const ReferenceOutcome ref = reference_departure(expected, o, departed, root);
      summary.had_no_candidate |= ref.had_no_candidate;
      EXPECT_EQ(calls, ref.calls) << "observer calls differ at step " << step;
      summary.replacements += static_cast<int>(calls.size());
    } else {
      EXPECT_TRUE(calls.empty());
    }
    EXPECT_EQ(o.state().neighbors, expected) << "neighbour table differs at step " << step;
    expect_index_matches_rebuild(o);
    if (::testing::Test::HasFailure()) break;
  }
  return summary;
}

OverlayConfig churny_config(std::size_t n, std::size_t d) {
  OverlayConfig cfg;
  cfg.node_count = n;
  cfg.degree = d;
  cfg.churn.join_interarrival_mean = sim::minutes(0.1);
  cfg.churn.session_min = sim::minutes(1.0);
  cfg.churn.session_median = sim::minutes(5.0);
  cfg.churn.session_max = sim::hours(2.0);
  cfg.churn.offline_gap_mean = sim::minutes(5.0);
  cfg.churn.departure_probability = 0.3;
  return cfg;
}

}  // namespace

TEST(DepartureIndex, MatchesFullScanUnderRandomChurn) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const RunSummary r = run_differential(churny_config(200, 5), seed, 4000);
    EXPECT_GT(r.departures, 20) << "seed " << seed;
    EXPECT_GT(r.replacements, 50) << "seed " << seed;
    EXPECT_GT(r.revivals, 20) << "seed " << seed;
  }
}

TEST(DepartureIndex, MatchesFullScanWhenCandidatesRunOut) {
  // Eight nodes of degree five: after a few departures some owner has no
  // candidate left and keeps the stale entry, which a later revival of the
  // departed node makes live again.
  bool saw_no_candidate = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RunSummary r = run_differential(churny_config(8, 5), seed, 600);
    EXPECT_GT(r.departures, 0) << "seed " << seed;
    saw_no_candidate |= r.had_no_candidate;
  }
  EXPECT_TRUE(saw_no_candidate) << "no run exercised the keep-stale-entry branch";
}
