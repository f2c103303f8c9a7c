// End-to-end differential test for the OPTIMIZED plan path: the full DP
// training loop (clipping active, noise off so runs are comparable) on
// fused + SIMD plans (plan_optimize, the default) against the scalar
// reference plans, at thread counts {1, 8}. SIMD matmuls use FMA and
// reassociated reductions, so bit-identity is not the contract here —
// instead the loss curve, the per-iteration gradient norms, and the final
// parameters must stay within a pinned tolerance band, and the seed sets
// the two trained models select must coincide. (Thread-count bit-identity
// of the reference loop is pinned by tests/runtime/determinism_test.cc,
// and its end-to-end outputs by tests/core/pipeline_golden_test.cc.)

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "graph/generators.h"
#include "im/seed_selection.h"
#include "nn/features.h"
#include "nn/graph_context.h"
#include "sampling/freq_sampler.h"

namespace privim {
namespace {

// Accumulated over 12 SGD iterations, per-pass kernel differences of a few
// float ULPs compound; 2e-3 relative holds with a wide margin in practice.
constexpr double kRelTol = 2e-3;

Graph MakeBaseGraph() {
  Rng rng(11);
  return std::move(ErdosRenyi(400, 0.04, false, rng)).ValueOrDie();
}

SubgraphContainer MakeContainer(const Graph& g, size_t num_subgraphs) {
  Rng rng(12);
  FreqSamplingConfig cfg;
  cfg.subgraph_size = 12;
  cfg.sampling_rate = 1.0;
  cfg.frequency_threshold = 20;
  FreqSampler sampler(cfg);
  DualStageResult result = std::move(sampler.Extract(g, rng)).ValueOrDie();
  SubgraphContainer out;
  for (size_t i = 0; i < result.container.size() && i < num_subgraphs; ++i) {
    out.Add(result.container[i]);
  }
  return out;
}

GnnModel MakeModel(GnnType type, uint64_t seed) {
  GnnConfig cfg;
  cfg.type = type;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  Rng rng(seed);
  return GnnModel(cfg, rng);
}

TrainConfig DiffTrainConfig(size_t threads, bool optimize) {
  TrainConfig cfg;
  cfg.batch_size = 6;
  cfg.iterations = 12;
  cfg.learning_rate = 0.05f;
  cfg.clip_bound = 1.0;           // Clipping stays in the loop...
  cfg.noise_kind = NoiseKind::kGaussian;
  cfg.noise_stddev = 0.0;         // ...noise off, so runs are comparable.
  cfg.num_threads = threads;
  cfg.plan_optimize = optimize;
  return cfg;
}

std::vector<float> FlatParams(const GnnModel& model) {
  std::vector<float> out(model.params().num_scalars());
  model.params().FlattenParams(out);
  return out;
}

// Seeds the trained model would release: full-graph inference
// probabilities ranked by TopKByScore under the exact 1-step oracle. Uses
// the scalar reference inference plan for BOTH models so the comparison
// isolates what training produced, not how inference was executed.
std::vector<NodeId> SelectedSeeds(const GnnModel& model, const Graph& g,
                                  const GraphContext& ctx,
                                  const Matrix& features, size_t k) {
  const GnnPlan plan = model.Compile(ctx);
  std::vector<float> params = FlatParams(model);
  PlanArena arena;
  plan.Forward(params, features, arena);
  std::span<const float> probs = plan.Output(arena);
  std::vector<double> scores(probs.begin(), probs.end());
  std::vector<NodeId> candidates(g.num_nodes());
  std::iota(candidates.begin(), candidates.end(), NodeId{0});
  SeedSelection sel =
      std::move(
          TopKByScore(candidates, k, scores, MakeExactUnitOracle(g)))
          .ValueOrDie();
  return sel.seeds;
}

class TrainerSimdDiffTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TrainerSimdDiffTest, OptimizedPlansMatchReferenceWithinTolerance) {
  const size_t threads = GetParam();
  const Graph g = MakeBaseGraph();
  SubgraphContainer container = MakeContainer(g, 40);
  ASSERT_GE(container.size(), 8u);
  const GraphContext full_ctx = BuildGraphContext(g);
  const Matrix full_features = BuildNodeFeatures(g);

  for (GnnType type : {GnnType::kGrat, GnnType::kGin}) {
    SCOPED_TRACE(GnnTypeName(type));
    GnnModel ref_model = MakeModel(type, 21);
    Rng ref_rng(31);
    TrainStats ref_stats =
        std::move(TrainDpGnn(ref_model, container,
                             DiffTrainConfig(threads, /*optimize=*/false),
                             ref_rng))
            .ValueOrDie();

    GnnModel opt_model = MakeModel(type, 21);
    Rng opt_rng(31);
    TrainStats opt_stats =
        std::move(TrainDpGnn(opt_model, container,
                             DiffTrainConfig(threads, /*optimize=*/true),
                             opt_rng))
            .ValueOrDie();

    // Loss curve and clipped-gradient norms, iteration by iteration.
    ASSERT_EQ(ref_stats.losses.size(), opt_stats.losses.size());
    for (size_t t = 0; t < ref_stats.losses.size(); ++t) {
      EXPECT_NEAR(ref_stats.losses[t], opt_stats.losses[t],
                  kRelTol * (1.0 + std::abs(ref_stats.losses[t])))
          << "loss at iter " << t;
      EXPECT_NEAR(ref_stats.grad_norms[t], opt_stats.grad_norms[t],
                  kRelTol * (1.0 + ref_stats.grad_norms[t]))
          << "grad norm at iter " << t;
    }
    EXPECT_NEAR(ref_stats.mean_grad_norm, opt_stats.mean_grad_norm,
                kRelTol * (1.0 + ref_stats.mean_grad_norm));

    // Final parameters, element-wise.
    const std::vector<float> ref_p = FlatParams(ref_model);
    const std::vector<float> opt_p = FlatParams(opt_model);
    ASSERT_EQ(ref_p.size(), opt_p.size());
    for (size_t i = 0; i < ref_p.size(); ++i) {
      ASSERT_NEAR(ref_p[i], opt_p[i],
                  kRelTol * (1.0 + std::abs(ref_p[i])))
          << "param scalar " << i;
    }

    // Both loops consumed the caller's RNG identically (same batch draws;
    // the zero-stddev noise path draws nothing extra).
    EXPECT_EQ(ref_rng.SaveState(), opt_rng.SaveState());

    // The released artifact — the selected seed set — is identical.
    EXPECT_EQ(SelectedSeeds(ref_model, g, full_ctx, full_features, 5),
              SelectedSeeds(opt_model, g, full_ctx, full_features, 5));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, TrainerSimdDiffTest,
                         ::testing::Values<size_t>(1, 8));

}  // namespace
}  // namespace privim
