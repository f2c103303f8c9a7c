#include "nn/layers.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace privim {
namespace {

Graph MakeLine() {
  // 0 -> 1 -> 2.
  GraphBuilder b(3);
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_TRUE(b.AddEdge(1, 2).ok());
  return std::move(b.Build()).ValueOrDie();
}

Matrix Eye(size_t n) {
  Matrix m = Matrix::Zeros(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

// The layer's pre-activation output for features `x`, on a Reference plan.
Matrix RunLayer(const GnnLayer& layer, const ParamStore& store,
                const GraphContext& ctx, const Matrix& x) {
  PlanBuilder pb;
  const PlanValId in = pb.Input(x.rows(), x.cols());
  const ExecutionPlan plan = pb.Build(layer.Lower(pb, ctx, in));
  PlanArena arena;
  plan.Forward(store.values(), x, arena);
  Matrix out(plan.output_rows(), plan.output_cols());
  const std::span<const float> v = plan.Output(arena);
  std::copy(v.begin(), v.end(), out.data());
  return out;
}

// Flat gradient of sum(out * out) over the layer's parameters.
std::vector<float> SquaredOutputGrad(const GnnLayer& layer,
                                     const ParamStore& store,
                                     const GraphContext& ctx,
                                     const Matrix& x) {
  PlanBuilder pb;
  const PlanValId out = layer.Lower(pb, ctx, pb.Input(x.rows(), x.cols()));
  const ExecutionPlan plan = pb.Build(pb.Sum(pb.Mul(out, out)));
  PlanArena arena;
  std::vector<float> grads(store.num_scalars());
  plan.Forward(store.values(), x, arena);
  plan.Backward(store.values(), x, arena, grads);
  return grads;
}

TEST(GcnConvTest, AggregatesWithSymmetricNorm) {
  Graph g = MakeLine();
  GraphContext ctx = BuildGraphContext(g);
  ParamStore store;
  Rng rng(1);
  GcnConv layer(3, 3, store, rng, "gcn");
  // Identity features isolate the aggregation matrix. W is random, so
  // only shape and finiteness are checked here; exact coefficients are
  // covered in graph_context_test.
  const Matrix out = RunLayer(layer, store, ctx, Eye(3));
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST(SageConvTest, OutputShapeAndConcatSemantics) {
  Graph g = MakeLine();
  GraphContext ctx = BuildGraphContext(g);
  ParamStore store;
  Rng rng(2);
  SageConv layer(2, 5, store, rng, "sage");
  const Matrix out =
      RunLayer(layer, store, ctx, Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}}));
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 5u);
  // Parameter count: W [4,5] + bias [1,5].
  EXPECT_EQ(store.num_scalars(), 25u);
}

TEST(GinConvTest, OmegaZeroAtInit) {
  Graph g = MakeLine();
  GraphContext ctx = BuildGraphContext(g);
  ParamStore store;
  Rng rng(3);
  GinConv layer(2, 4, store, rng, "gin");
  // The omega parameter exists and starts at 0 (so (1+omega)=1).
  bool found = false;
  for (const ParamEntry& e : store.entries()) {
    if (e.name == "gin.omega") {
      EXPECT_FLOAT_EQ(store.values()[e.offset], 0.0f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(RunLayer(layer, store, ctx, Matrix::Ones(3, 2)).cols(), 4u);
}

TEST(GinConvTest, OmegaReceivesGradient) {
  Graph g = MakeLine();
  GraphContext ctx = BuildGraphContext(g);
  ParamStore store;
  Rng rng(4);
  GinConv layer(2, 4, store, rng, "gin");
  const std::vector<float> grads =
      SquaredOutputGrad(layer, store, ctx, Matrix::Ones(3, 2));
  for (const ParamEntry& e : store.entries()) {
    if (e.name == "gin.omega") {
      EXPECT_NE(grads[e.offset], 0.0f);
    }
  }
}

class AttentionConvTest
    : public ::testing::TestWithParam<AttentionNorm> {};

TEST_P(AttentionConvTest, AttentionWeightsNormalizeCorrectly) {
  // Star graph: 0 -> {1, 2, 3}.
  GraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(0, 2).ok());
  ASSERT_TRUE(b.AddEdge(0, 3).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);

  ParamStore store;
  Rng rng(5);
  AttentionConv layer(2, 3, GetParam(), store, rng, "att");
  const Matrix out = RunLayer(
      layer, store, ctx, Matrix::FromRows({{1, 2}, {-1, 0}, {0, 1}, {2, 2}}));
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST_P(AttentionConvTest, GradientsFlowToAllParams) {
  Graph g = MakeLine();
  GraphContext ctx = BuildGraphContext(g);
  ParamStore store;
  Rng rng(6);
  AttentionConv layer(2, 3, GetParam(), store, rng, "att");
  const std::vector<float> grads = SquaredOutputGrad(
      layer, store, ctx, Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}}));
  // Every parameter tensor (W, a_src, a_dst) should receive some gradient.
  for (const ParamEntry& e : store.entries()) {
    double norm = 0.0;
    for (size_t i = 0; i < e.size(); ++i) norm += std::abs(grads[e.offset + i]);
    EXPECT_GT(norm, 0.0) << e.name;
  }
}

INSTANTIATE_TEST_SUITE_P(BothNorms, AttentionConvTest,
                         ::testing::Values(AttentionNorm::kTarget,
                                           AttentionNorm::kSource),
                         [](const auto& info) {
                           return info.param == AttentionNorm::kTarget
                                      ? "GAT"
                                      : "GRAT";
                         });

TEST(AttentionNormDirectionTest, GatAndGratDifferOnAsymmetricGraph) {
  // 0 -> 1, 0 -> 2, 3 -> 1: node 1 has two in-arcs, node 0 two out-arcs.
  GraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(0, 2).ok());
  ASSERT_TRUE(b.AddEdge(3, 1).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);

  // Identical initialization for both layers.
  ParamStore store_gat, store_grat;
  Rng rng_a(7), rng_b(7);
  AttentionConv gat(2, 3, AttentionNorm::kTarget, store_gat, rng_a, "a");
  AttentionConv grat(2, 3, AttentionNorm::kSource, store_grat, rng_b, "a");
  const Matrix x = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}, {2, 1}});
  const Matrix out_gat = RunLayer(gat, store_gat, ctx, x);
  const Matrix out_grat = RunLayer(grat, store_grat, ctx, x);
  double diff = 0.0;
  for (size_t i = 0; i < out_gat.size(); ++i) {
    diff += std::abs(out_gat.data()[i] - out_grat.data()[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

}  // namespace
}  // namespace privim
