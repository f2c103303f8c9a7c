// Additional loss tests: finite-difference gradient checks of the full
// Eq.-5 loss (single and multi-step), scale invariance properties, and
// behavior with fractional IC weights.

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "core/loss.h"
#include "graph/generators.h"
#include "nn/graph_context.h"
#include "tests/tensor/plan_test_util.h"

namespace privim {
namespace {

Matrix RandomProbs(size_t n, Rng& rng) {
  Matrix m(n, 1);
  for (size_t i = 0; i < n; ++i) {
    m(i, 0) = static_cast<float>(rng.Uniform(0.05, 0.95));
  }
  return m;
}

// Eq. 5 on a Reference plan, with the seed probabilities `x` bound as the
// plan's parameter so the loss is differentiable in them.
plan_test::LeafPlan LossPlan(const GraphContext& ctx, const Matrix& x,
                             const ImLossConfig& cfg) {
  return plan_test::LeafPlan(
      {x}, [&](PlanBuilder& pb, const std::vector<PlanValId>& l) {
        return LowerImPenaltyLoss(pb, ctx, l[0], cfg);
      });
}

double Loss(const GraphContext& ctx, const Matrix& x,
            const ImLossConfig& cfg) {
  return LossPlan(ctx, x, cfg).Scalar();
}

void CheckLossGradient(const GraphContext& ctx, Matrix probs,
                       const ImLossConfig& cfg, double tol = 3e-2) {
  const Matrix analytic = LossPlan(ctx, probs, cfg).Grads({probs})[0];
  const double eps = 1e-3;
  for (size_t i = 0; i < probs.size(); ++i) {
    const float orig = probs.data()[i];
    probs.data()[i] = orig + static_cast<float>(eps);
    const double up = Loss(ctx, probs, cfg);
    probs.data()[i] = orig - static_cast<float>(eps);
    const double down = Loss(ctx, probs, cfg);
    probs.data()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric,
                tol * std::max(0.05, std::abs(numeric)))
        << "node " << i;
  }
}

class LossGradientTest : public ::testing::TestWithParam<int> {};

TEST_P(LossGradientTest, MatchesFiniteDifferences) {
  Rng gen(100 + GetParam());
  Graph g = std::move(ErdosRenyi(12, 0.25, true, gen)).ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);
  Rng rng(7);
  ImLossConfig cfg;
  cfg.diffusion_steps = GetParam();
  cfg.lambda = 0.3f;
  CheckLossGradient(ctx, RandomProbs(g.num_nodes(), rng), cfg);
}

INSTANTIATE_TEST_SUITE_P(Steps, LossGradientTest, ::testing::Values(1, 2, 3),
                         [](const auto& info) {
                           return "j" + std::to_string(info.param);
                         });

TEST(LossMultiStepTest, FractionalWeightsRespected) {
  // Two parallel chains into node 2 with different weights: the stronger
  // edge's source gets the stronger gradient.
  GraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 2, 0.9f).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 0.1f).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);
  Matrix x(3, 1, 0.5f);
  ImLossConfig cfg;
  cfg.lambda = 0.0f;
  const Matrix grad = LossPlan(ctx, x, cfg).Grads({x})[0];
  // More negative gradient = stronger pull toward seeding.
  EXPECT_LT(grad(0, 0), grad(1, 0));
}

TEST(LossMultiStepTest, LossIsBounded) {
  // survival in [0,1] and seed mass in [0,1] bound the loss in
  // [0, 1 + lambda].
  Rng gen(5);
  Graph g = std::move(BarabasiAlbert(60, 3, gen)).ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);
  Rng rng(6);
  ImLossConfig cfg;
  cfg.diffusion_steps = 3;
  cfg.lambda = 0.25f;
  for (int trial = 0; trial < 10; ++trial) {
    const double loss = Loss(ctx, RandomProbs(g.num_nodes(), rng), cfg);
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, 1.0 + 0.25 + 1e-6);
  }
}

TEST(LossMultiStepTest, MoreStepsNeverIncreaseSurvival) {
  // Adding diffusion steps multiplies survival by factors <= 1, so the
  // coverage part of the loss is non-increasing in j for fixed x.
  Rng gen(8);
  Graph g = std::move(ErdosRenyi(40, 0.1, true, gen)).ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);
  Rng rng(9);
  Matrix probs = RandomProbs(g.num_nodes(), rng);
  ImLossConfig cfg;
  cfg.lambda = 0.0f;
  double prev = 1e9;
  for (int j = 1; j <= 4; ++j) {
    cfg.diffusion_steps = j;
    const double loss = Loss(ctx, probs, cfg);
    EXPECT_LE(loss, prev + 1e-6) << "j=" << j;
    prev = loss;
  }
}

TEST(LossMultiStepTest, SubgraphSizeInvariantScale) {
  // Mean normalization: duplicating a graph as two disconnected copies
  // with the same per-node seed probabilities leaves the loss unchanged.
  GraphBuilder small(3);
  ASSERT_TRUE(small.AddEdge(0, 1, 1.0f).ok());
  ASSERT_TRUE(small.AddEdge(1, 2, 1.0f).ok());
  Graph gs = std::move(small.Build()).ValueOrDie();
  GraphBuilder doubled(6);
  ASSERT_TRUE(doubled.AddEdge(0, 1, 1.0f).ok());
  ASSERT_TRUE(doubled.AddEdge(1, 2, 1.0f).ok());
  ASSERT_TRUE(doubled.AddEdge(3, 4, 1.0f).ok());
  ASSERT_TRUE(doubled.AddEdge(4, 5, 1.0f).ok());
  Graph gd = std::move(doubled.Build()).ValueOrDie();

  Matrix xs(3, 1);
  xs(0, 0) = 0.8f;
  xs(1, 0) = 0.3f;
  xs(2, 0) = 0.1f;
  Matrix xd(6, 1);
  for (int copy = 0; copy < 2; ++copy) {
    for (int i = 0; i < 3; ++i) xd(3 * copy + i, 0) = xs(i, 0);
  }
  ImLossConfig cfg;
  cfg.diffusion_steps = 2;
  const double ls = Loss(BuildGraphContext(gs), xs, cfg);
  const double ld = Loss(BuildGraphContext(gd), xd, cfg);
  EXPECT_NEAR(ls, ld, 1e-6);
}

}  // namespace
}  // namespace privim
