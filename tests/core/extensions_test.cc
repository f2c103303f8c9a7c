// Tests for the paper's extension points: alternative diffusion models at
// evaluation (LT / SIS / Monte-Carlo IC), indicator-driven auto-tuning,
// and exporting the trained model.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/privim.h"
#include "graph/generators.h"
#include "im/seed_selection.h"

namespace privim {
namespace {

struct SplitGraphs {
  Graph train;
  Graph eval;
};

SplitGraphs MakeSplitGraphs(uint64_t seed) {
  Rng rng(seed);
  SplitGraphs out;
  out.train = std::move(BarabasiAlbert(500, 4, rng)).ValueOrDie();
  out.eval = std::move(BarabasiAlbert(500, 4, rng)).ValueOrDie();
  return out;
}

PrivImConfig FastConfig(const SplitGraphs& graphs) {
  PrivImConfig cfg = MakeDefaultConfig(Method::kPrivImStar, 4.0,
                                       graphs.train.num_nodes());
  cfg.train.iterations = 12;
  cfg.train.batch_size = 8;
  cfg.seed_count = 10;
  cfg.freq.subgraph_size = 16;
  return cfg;
}

class DiffusionModeTest
    : public ::testing::TestWithParam<PrivImConfig::EvalDiffusion> {};

TEST_P(DiffusionModeTest, RunMethodSupportsAllEvalModels) {
  SplitGraphs graphs = MakeSplitGraphs(1);
  PrivImConfig cfg = FastConfig(graphs);
  cfg.eval_diffusion = GetParam();
  cfg.eval_trials = 16;
  if (GetParam() == PrivImConfig::EvalDiffusion::kSis) cfg.eval_steps = 5;
  Rng rng(2);
  PrivImRunResult run =
      std::move(RunMethod(graphs.train, graphs.eval, cfg, rng))
          .ValueOrDie();
  EXPECT_EQ(run.seeds.size(), cfg.seed_count);
  // Every diffusion model activates at least the seeds themselves.
  EXPECT_GE(run.spread, static_cast<double>(cfg.seed_count));
  EXPECT_LE(run.spread, static_cast<double>(graphs.eval.num_nodes()));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DiffusionModeTest,
    ::testing::Values(PrivImConfig::EvalDiffusion::kExactIc,
                      PrivImConfig::EvalDiffusion::kMonteCarloIc,
                      PrivImConfig::EvalDiffusion::kLt,
                      PrivImConfig::EvalDiffusion::kSis),
    [](const auto& info) {
      switch (info.param) {
        case PrivImConfig::EvalDiffusion::kExactIc:
          return "ExactIc";
        case PrivImConfig::EvalDiffusion::kMonteCarloIc:
          return "MonteCarloIc";
        case PrivImConfig::EvalDiffusion::kLt:
          return "LT";
        case PrivImConfig::EvalDiffusion::kSis:
          return "SIS";
      }
      return "Unknown";
    });

TEST(DiffusionOracleTest, MonteCarloIcMatchesExactOnUnitWeights) {
  Rng gen(3);
  Graph g = std::move(ErdosRenyi(60, 0.08, true, gen)).ValueOrDie();
  Rng rng(4);
  SpreadOracle mc = MakeMonteCarloOracle(g, 8, rng, 1).ValueOrDie();
  SpreadOracle exact = MakeExactUnitOracle(g, 1);
  const std::vector<NodeId> seeds = {1, 5, 9};
  EXPECT_DOUBLE_EQ(mc(seeds), exact(seeds));
}

TEST(DiffusionOracleTest, LtOracleUnitWeightsFullPropagation) {
  // With weight 1 every reachable node activates under LT a.s.
  GraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(2, 3, 1.0f).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(5);
  SpreadOracle lt = MakeLtOracle(g, 10, rng).ValueOrDie();
  EXPECT_DOUBLE_EQ(lt({0}), 4.0);
}

TEST(DiffusionOracleTest, SisOracleMonotoneInSteps) {
  Rng gen(6);
  Graph g = std::move(BarabasiAlbert(80, 3, gen)).ValueOrDie();
  Rng rng(7);
  const std::vector<NodeId> seeds = {0, 1};
  SpreadOracle short_run =
      MakeSisOracle(g, 32, 0.3, 1, rng).ValueOrDie();
  SpreadOracle long_run =
      MakeSisOracle(g, 32, 0.3, 6, rng).ValueOrDie();
  EXPECT_LE(short_run(seeds), long_run(seeds));
}

TEST(AutoTuneTest, SetsParametersFromIndicatorPeak) {
  PrivImConfig cfg = MakeDefaultConfig(Method::kPrivImStar, 3.0, 1000);
  AutoTuneSamplingParams(7600, cfg);  // LastFM paper size.
  EXPECT_GE(cfg.freq.subgraph_size, 10u);
  EXPECT_LE(cfg.freq.subgraph_size, 80u);
  EXPECT_GE(cfg.freq.frequency_threshold, 2u);
  EXPECT_LE(cfg.freq.frequency_threshold, 12u);
  EXPECT_EQ(cfg.rwr.subgraph_size, cfg.freq.subgraph_size);
}

TEST(AutoTuneTest, LargerDatasetsGetLargerNSmallerM) {
  PrivImConfig small_cfg = MakeDefaultConfig(Method::kPrivImStar, 3.0, 500);
  PrivImConfig large_cfg = MakeDefaultConfig(Method::kPrivImStar, 3.0, 500);
  AutoTuneSamplingParams(1000, small_cfg);
  AutoTuneSamplingParams(196000, large_cfg);
  EXPECT_GE(large_cfg.freq.subgraph_size, small_cfg.freq.subgraph_size);
  EXPECT_LE(large_cfg.freq.frequency_threshold,
            small_cfg.freq.frequency_threshold);
}

TEST(ModelExportTest, RunMethodHandsOutTrainedModel) {
  SplitGraphs graphs = MakeSplitGraphs(8);
  PrivImConfig cfg = FastConfig(graphs);
  Rng rng(9);
  std::unique_ptr<GnnModel> model;
  PrivImRunResult run =
      std::move(RunMethod(graphs.train, graphs.eval, cfg, rng, &model))
          .ValueOrDie();
  ASSERT_NE(model, nullptr);
  // The exported model reproduces the run's scores: evaluation ran the
  // same Reference inference, so every seed's logit matches bit for bit.
  const std::vector<float> logits =
      std::move(InferSeedLogits(*model, graphs.eval,
                                PlanOptions::Reference()))
          .ValueOrDie();
  EXPECT_EQ(logits.size(), graphs.eval.num_nodes());
  ASSERT_EQ(run.seeds.size(), cfg.seed_count);
  for (size_t i = 0; i < run.seeds.size(); ++i) {
    EXPECT_EQ(run.seed_scores[i], logits[run.seeds[i]]) << "seed " << i;
  }
}

}  // namespace
}  // namespace privim
