// The runtime's central promise: every parallelized stage of the pipeline
// is bit-identical for every thread count (including serial). These tests
// run training, both samplers, Monte-Carlo spread estimation and RR-sketch
// generation at num_threads in {1, 2, 8} from the same seed and require
// exact equality — no tolerances anywhere.

#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "graph/generators.h"
#include "im/diffusion.h"
#include "im/rr_sets.h"
#include "nn/features.h"
#include "sampling/freq_sampler.h"
#include "sampling/rwr_sampler.h"

namespace privim {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

Graph TestGraph(uint64_t seed) {
  Rng rng(seed);
  return std::move(BarabasiAlbert(300, 4, rng)).ValueOrDie();
}

bool SameContainers(const SubgraphContainer& a, const SubgraphContainer& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].nodes != b[i].nodes) return false;
    if (a[i].local.Edges() != b[i].local.Edges()) return false;
  }
  return true;
}

TEST(RuntimeDeterminismTest, FreqSamplerBitIdenticalAcrossThreadCounts) {
  Graph g = TestGraph(1);
  FreqSamplingConfig cfg;
  cfg.subgraph_size = 12;
  cfg.sampling_rate = 0.6;
  cfg.frequency_threshold = 5;

  cfg.num_threads = 1;
  Rng ref_rng(42);
  DualStageResult ref =
      std::move(FreqSampler(cfg).Extract(g, ref_rng)).ValueOrDie();
  ASSERT_GT(ref.container.size(), 0u);
  const uint64_t ref_next = ref_rng.NextUint64();

  for (size_t threads : kThreadCounts) {
    cfg.num_threads = threads;
    Rng rng(42);
    DualStageResult got =
        std::move(FreqSampler(cfg).Extract(g, rng)).ValueOrDie();
    EXPECT_TRUE(SameContainers(ref.container, got.container))
        << "threads=" << threads;
    EXPECT_EQ(ref.frequency, got.frequency) << "threads=" << threads;
    EXPECT_EQ(ref.stage1_count, got.stage1_count);
    EXPECT_EQ(ref.stage2_count, got.stage2_count);
    // The caller's generator must land in the same state too.
    EXPECT_EQ(ref_next, rng.NextUint64());
  }
}

TEST(RuntimeDeterminismTest, RwrSamplerBitIdenticalAcrossThreadCounts) {
  Graph g = TestGraph(2);
  RwrConfig cfg;
  cfg.subgraph_size = 12;
  cfg.sampling_rate = 0.6;

  cfg.num_threads = 1;
  Rng ref_rng(43);
  SubgraphContainer ref =
      std::move(RwrSampler(cfg).Extract(g, ref_rng)).ValueOrDie();
  ASSERT_GT(ref.size(), 0u);
  const uint64_t ref_next = ref_rng.NextUint64();

  for (size_t threads : kThreadCounts) {
    cfg.num_threads = threads;
    Rng rng(43);
    SubgraphContainer got =
        std::move(RwrSampler(cfg).Extract(g, rng)).ValueOrDie();
    EXPECT_TRUE(SameContainers(ref, got)) << "threads=" << threads;
    EXPECT_EQ(ref_next, rng.NextUint64());
  }
}

TEST(RuntimeDeterminismTest, TrainerBitIdenticalAcrossThreadCounts) {
  Graph g = TestGraph(3);
  FreqSamplingConfig scfg;
  scfg.subgraph_size = 10;
  scfg.sampling_rate = 1.0;
  scfg.frequency_threshold = 20;
  Rng srng(5);
  DualStageResult sampled =
      std::move(FreqSampler(scfg).Extract(g, srng)).ValueOrDie();
  ASSERT_GE(sampled.container.size(), 8u);

  GnnConfig gcfg;
  gcfg.type = GnnType::kGrat;
  gcfg.in_dim = kNodeFeatureDim;
  gcfg.hidden_dim = 8;
  gcfg.num_layers = 2;

  TrainConfig tcfg;
  tcfg.batch_size = 6;
  tcfg.iterations = 8;
  tcfg.clip_bound = 0.5;
  // Noisy training on purpose: the single post-aggregation noise draw is
  // the subtlest part of the RNG-stream contract.
  tcfg.noise_kind = NoiseKind::kGaussian;
  tcfg.noise_stddev = 0.05;

  auto train_once = [&](size_t threads, std::vector<float>& params_out,
                        std::vector<double>& losses_out) {
    Rng model_rng(7);
    GnnModel model(gcfg, model_rng);
    TrainConfig cfg = tcfg;
    cfg.num_threads = threads;
    Rng rng(11);
    TrainStats stats =
        std::move(TrainDpGnn(model, sampled.container, cfg, rng))
            .ValueOrDie();
    params_out.resize(model.params().num_scalars());
    model.params().FlattenParams(params_out);
    losses_out = stats.losses;
  };

  std::vector<float> ref_params;
  std::vector<double> ref_losses;
  train_once(1, ref_params, ref_losses);

  for (size_t threads : kThreadCounts) {
    std::vector<float> params;
    std::vector<double> losses;
    train_once(threads, params, losses);
    EXPECT_EQ(ref_params, params) << "threads=" << threads;
    EXPECT_EQ(ref_losses, losses) << "threads=" << threads;
  }
}

TEST(RuntimeDeterminismTest, McSpreadBitIdenticalAcrossThreadCounts) {
  Graph g = TestGraph(4);
  const std::vector<NodeId> seeds = {0, 5, 17, 100};

  Rng ref_rng(13);
  const double ref =
      EstimateIcSpread(g, seeds, /*trials=*/64, ref_rng, /*max_steps=*/-1,
                       /*num_threads=*/1);
  const uint64_t ref_next = ref_rng.NextUint64();

  for (size_t threads : kThreadCounts) {
    Rng rng(13);
    const double got = EstimateIcSpread(g, seeds, 64, rng, -1, threads);
    EXPECT_EQ(ref, got) << "threads=" << threads;
    EXPECT_EQ(ref_next, rng.NextUint64());
  }
}

TEST(RuntimeDeterminismTest, RrSketchBitIdenticalAcrossThreadCounts) {
  Graph g = TestGraph(5);

  Rng ref_rng(17);
  RrSketch ref =
      std::move(RrSketch::Generate(g, /*count=*/128, /*max_steps=*/-1,
                                   ref_rng, /*num_threads=*/1))
          .ValueOrDie();
  const uint64_t ref_next = ref_rng.NextUint64();

  for (size_t threads : kThreadCounts) {
    Rng rng(17);
    RrSketch got =
        std::move(RrSketch::Generate(g, 128, -1, rng, threads)).ValueOrDie();
    EXPECT_EQ(ref.sets(), got.sets()) << "threads=" << threads;
    EXPECT_EQ(ref_next, rng.NextUint64());
  }
}

}  // namespace
}  // namespace privim
