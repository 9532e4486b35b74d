// Weight-parameterised properties of edge quality and the utility models.
#include <gtest/gtest.h>

#include "core/utility.hpp"
#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class QualityWeightSweep : public ::testing::TestWithParam<double> {
 protected:
  QualityWeightSweep()
      : world(71),
        weights{GetParam(), 1.0 - GetParam()},
        quality(world.probing, world.history, weights) {}

  void SetUp() override { world.warmup(); }

  p2ptest::StableWorld world;
  QualityWeights weights;
  EdgeQualityEvaluator quality;
};

}  // namespace

TEST_P(QualityWeightSweep, QualityBoundedForAllEdges) {
  for (NodeId s = 0; s < world.overlay.size(); ++s) {
    for (NodeId v : world.overlay.neighbors(s)) {
      const double q = quality.edge_quality(s, v, 19, 1, net::kInvalidNode, 3);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST_P(QualityWeightSweep, ResponderEdgeAlwaysOne) {
  EXPECT_DOUBLE_EQ(quality.edge_quality(0, 19, 19, 1, net::kInvalidNode, 5), 1.0);
}

TEST_P(QualityWeightSweep, HistoryNeverLowersQuality) {
  const NodeId s = 0;
  const NodeId v = world.overlay.neighbors(s)[0];
  const double before = quality.edge_quality(s, v, 19, 2, net::kInvalidNode, 4);
  for (std::uint32_t k = 1; k <= 3; ++k) {
    world.history.at(s).record({2, k, net::kInvalidNode, v});
  }
  const double after = quality.edge_quality(s, v, 19, 2, net::kInvalidNode, 4);
  EXPECT_GE(after, before - 1e-12);
}

TEST_P(QualityWeightSweep, Model1UtilityMonotoneInQuality) {
  // Holding costs fixed, a strictly better edge must yield strictly higher
  // Model-I utility whenever P_r > 0 — the alignment property Eq. 1 is
  // built for. One edge is compared before and after history is recorded
  // on it, so its availability term and transmission cost cancel and only
  // the history (selectivity) term can move.
  RoutingContext ctx{world.overlay, quality, Contract{}, 6, 5, 19};
  ASSERT_GT(ctx.contract.routing_benefit(), 0.0);
  const NodeId s = 1;
  const NodeId v = world.overlay.neighbors(s)[0];
  const double q_before = quality.edge_quality(s, v, 19, 6, net::kInvalidNode, 5);
  const double u_before = model1_utility(ctx, s, net::kInvalidNode, v);
  for (std::uint32_t k = 1; k <= 4; ++k) {
    world.history.at(s).record({6, k, net::kInvalidNode, v});
  }
  const double q_after = quality.edge_quality(s, v, 19, 6, net::kInvalidNode, 5);
  const double u_after = model1_utility(ctx, s, net::kInvalidNode, v);
  if (weights.w_selectivity == 0.0) {
    // Quality is pure availability: history cannot move q or the utility.
    EXPECT_EQ(q_after, q_before);
    EXPECT_EQ(u_after, u_before);
  } else {
    EXPECT_GT(q_after, q_before);
    EXPECT_GT(u_after, u_before);
  }
}

TEST_P(QualityWeightSweep, Model2AtLeastModel1ForInteriorHops) {
  RoutingContext ctx{world.overlay, quality, Contract{}, 6, 1, 19};
  for (NodeId j : world.overlay.neighbors(0)) {
    if (j == 19) continue;
    EXPECT_GE(model2_utility(ctx, 0, net::kInvalidNode, j, 3) + 1e-12,
              model1_utility(ctx, 0, net::kInvalidNode, j));
  }
}

INSTANTIATE_TEST_SUITE_P(Weights, QualityWeightSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));
