#include "nn/gnn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "nn/features.h"

namespace privim {
namespace {

// Seed probabilities from the model's Reference inference plan.
std::vector<float> Probabilities(const GnnModel& model, const Graph& g) {
  const GraphContext ctx = BuildGraphContext(g);
  const GnnPlan plan = model.Compile(ctx);
  PlanArena arena;
  plan.Forward(model.params().values(), BuildNodeFeatures(g), arena);
  EXPECT_EQ(plan.output_rows(), g.num_nodes());
  EXPECT_EQ(plan.output_cols(), 1u);
  const std::span<const float> out = plan.Output(arena);
  return {out.begin(), out.end()};
}

TEST(ParseGnnTypeTest, AllAliases) {
  EXPECT_EQ(*ParseGnnType("gcn"), GnnType::kGcn);
  EXPECT_EQ(*ParseGnnType("GCN"), GnnType::kGcn);
  EXPECT_EQ(*ParseGnnType("sage"), GnnType::kSage);
  EXPECT_EQ(*ParseGnnType("GraphSAGE"), GnnType::kSage);
  EXPECT_EQ(*ParseGnnType("gin"), GnnType::kGin);
  EXPECT_EQ(*ParseGnnType("gat"), GnnType::kGat);
  EXPECT_EQ(*ParseGnnType("grat"), GnnType::kGrat);
  EXPECT_FALSE(ParseGnnType("transformer").ok());
}

TEST(GnnTypeNameTest, RoundTrips) {
  for (GnnType t : {GnnType::kGcn, GnnType::kSage, GnnType::kGin,
                    GnnType::kGat, GnnType::kGrat}) {
    EXPECT_EQ(*ParseGnnType(GnnTypeName(t)), t);
  }
}

class GnnModelTest : public ::testing::TestWithParam<GnnType> {};

TEST_P(GnnModelTest, OutputsProbabilitiesPerNode) {
  Rng graph_rng(1);
  Graph g =
      std::move(ErdosRenyi(30, 0.15, /*directed=*/true, graph_rng))
          .ValueOrDie();

  GnnConfig cfg;
  cfg.type = GetParam();
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 16;
  cfg.num_layers = 3;
  Rng rng(2);
  GnnModel model(cfg, rng);

  const std::vector<float> out = Probabilities(model, g);
  ASSERT_EQ(out.size(), g.num_nodes());
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    EXPECT_GT(out[u], 0.0f);
    EXPECT_LT(out[u], 1.0f);
  }
}

TEST_P(GnnModelTest, BackwardReachesEveryParameter) {
  Rng graph_rng(3);
  Graph g =
      std::move(ErdosRenyi(20, 0.2, /*directed=*/true, graph_rng))
          .ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);
  Matrix features = BuildNodeFeatures(g);

  GnnConfig cfg;
  cfg.type = GetParam();
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  Rng rng(4);
  GnnModel model(cfg, rng);

  PlanBuilder pb;
  const PlanValId x = pb.Input(ctx.num_nodes, cfg.in_dim);
  const PlanValId out = pb.Sigmoid(model.LowerLogits(pb, ctx, x));
  const GnnPlan plan = pb.Build(pb.Sum(pb.Mul(out, out)));
  PlanArena arena;
  std::vector<float> grads(model.params().num_scalars());
  plan.Forward(model.params().values(), features, arena);
  plan.Backward(model.params().values(), features, arena, grads);

  size_t with_grad = 0;
  for (const ParamEntry& p : model.params().entries()) {
    double norm = 0.0;
    for (size_t i = 0; i < p.size(); ++i) norm += std::abs(grads[p.offset + i]);
    if (norm > 0.0) ++with_grad;
  }
  // ReLU dead units can zero individual tensors occasionally; require the
  // overwhelming majority to receive gradient.
  EXPECT_GE(with_grad + 1, model.params().num_tensors());
}

TEST_P(GnnModelTest, SameParamsSameGraphDeterministicForward) {
  Rng graph_rng(5);
  Graph g =
      std::move(ErdosRenyi(15, 0.2, true, graph_rng)).ValueOrDie();
  GnnConfig cfg;
  cfg.type = GetParam();
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  Rng rng(6);
  GnnModel model(cfg, rng);
  const std::vector<float> a = Probabilities(model, g);
  const std::vector<float> b = Probabilities(model, g);
  for (size_t u = 0; u < g.num_nodes(); ++u) EXPECT_FLOAT_EQ(a[u], b[u]);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, GnnModelTest,
                         ::testing::Values(GnnType::kGcn, GnnType::kSage,
                                           GnnType::kGin, GnnType::kGat,
                                           GnnType::kGrat),
                         [](const auto& info) {
                           return GnnTypeName(info.param);
                         });

TEST(GnnModelTest, TransfersAcrossGraphSizes) {
  // Train-on-subgraph / infer-on-full-graph requires the same parameters
  // to run on differently sized graphs.
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  Rng rng(7);
  GnnModel model(cfg, rng);

  Rng graph_rng(8);
  for (size_t n : {10u, 50u, 200u}) {
    Graph g = std::move(ErdosRenyi(n, 0.1, true, graph_rng)).ValueOrDie();
    EXPECT_EQ(Probabilities(model, g).size(), n);
  }
}

}  // namespace
}  // namespace privim
