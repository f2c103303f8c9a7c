// Golden-output regression tests for the sampling / influence hot paths.
//
// The constants in sampler_goldens.inc pin the exact bit-level outputs
// (node ids and order, edge sets, weights, frequency vectors, spread
// doubles) that the samplers produced BEFORE the scratch-workspace rewrite,
// for fixed seeds. Every case here recomputes the same output with the
// current code at thread counts {1, 2, 8} and asserts bit-equality, so
// they enforce two contracts at once:
//
//  * performance work is observationally invisible — reusing epoch-stamped
//    scratch, pooled buffers, or the r-hop-ball cache must not change one
//    byte of output;
//  * the thread count is a throughput knob only (docs/runtime.md) — all
//    counts produce the serial answer.
//
// If a case fails after an INTENTIONAL semantic change, regenerate the
// goldens with tools/golden_gen.cc (see its header for the procedure) and
// say so in the PR description. Never regenerate to paper over an
// unintended diff. Graphs and configs here must stay in lockstep with
// tools/golden_gen.cc.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "im/diffusion.h"
#include "im/rr_sets.h"
#include "sampling/freq_sampler.h"
#include "sampling/rwr_sampler.h"

#include "golden_hash.h"
#include "sampler_goldens.inc"

namespace privim {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

const Graph& GoldenGraph() {
  static const Graph* g = new Graph([] {
    Rng rng(7);
    return std::move(BarabasiAlbert(300, 4, rng)).ValueOrDie();
  }());
  return *g;
}

const Graph& GoldenWeightedGraph() {
  static const Graph* g = new Graph([] {
    Rng rng(8);
    return std::move(WeightedCascade(
                         std::move(BarabasiAlbert(400, 5, rng)).ValueOrDie()))
        .ValueOrDie();
  }());
  return *g;
}

std::vector<NodeId> GoldenSubset() {
  std::vector<NodeId> subset;
  for (NodeId v = 0; v < GoldenGraph().num_nodes(); v += 3) {
    subset.push_back(v);
  }
  return subset;
}

std::vector<NodeId> GoldenSeeds() {
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < 10; ++s) seeds.push_back(s * 7);
  return seeds;
}

TEST(GoldenDeterminismTest, RwrFullSweepMatchesPinnedOutput) {
  for (size_t threads : kThreadCounts) {
    RwrConfig cfg;
    cfg.subgraph_size = 12;
    cfg.sampling_rate = 0.5;
    cfg.hop_bound = 3;
    cfg.num_threads = threads;
    Rng rng(101);
    auto c =
        std::move(RwrSampler(cfg).Extract(GoldenGraph(), rng)).ValueOrDie();
    EXPECT_EQ(c.size(), goldens::kRwrFullCount) << "threads=" << threads;
    EXPECT_EQ(HashContainer(c), goldens::kRwrFullHash)
        << "threads=" << threads;
  }
}

TEST(GoldenDeterminismTest, RwrRestrictedMatchesPinnedOutput) {
  const std::vector<NodeId> subset = GoldenSubset();
  for (size_t threads : kThreadCounts) {
    RwrConfig cfg;
    cfg.subgraph_size = 12;
    cfg.sampling_rate = 0.5;
    cfg.hop_bound = 2;
    cfg.num_threads = threads;
    Rng rng(102);
    auto c = std::move(RwrSampler(cfg).Extract(GoldenGraph(), rng, &subset))
                 .ValueOrDie();
    EXPECT_EQ(c.size(), goldens::kRwrRestrictCount) << "threads=" << threads;
    EXPECT_EQ(HashContainer(c), goldens::kRwrRestrictHash)
        << "threads=" << threads;
  }
}

TEST(GoldenDeterminismTest, FreqDualStageMatchesPinnedOutput) {
  for (size_t threads : kThreadCounts) {
    FreqSamplingConfig cfg;
    cfg.subgraph_size = 12;
    cfg.sampling_rate = 0.5;
    cfg.frequency_threshold = 5;
    cfg.num_threads = threads;
    Rng rng(103);
    auto r =
        std::move(FreqSampler(cfg).Extract(GoldenGraph(), rng)).ValueOrDie();
    EXPECT_EQ(r.stage1_count, goldens::kFreqDualStage1)
        << "threads=" << threads;
    EXPECT_EQ(r.stage2_count, goldens::kFreqDualStage2)
        << "threads=" << threads;
    EXPECT_EQ(HashDualStage(r), goldens::kFreqDualHash)
        << "threads=" << threads;
  }
}

TEST(GoldenDeterminismTest, FreqRestrictedScsOnlyMatchesPinnedOutput) {
  const std::vector<NodeId> subset = GoldenSubset();
  for (size_t threads : kThreadCounts) {
    FreqSamplingConfig cfg;
    cfg.subgraph_size = 10;
    cfg.sampling_rate = 0.8;
    cfg.frequency_threshold = 4;
    cfg.decay = 2.0;
    cfg.boundary_stage = false;
    cfg.num_threads = threads;
    Rng rng(104);
    auto r = std::move(FreqSampler(cfg).Extract(GoldenGraph(), rng, &subset))
                 .ValueOrDie();
    EXPECT_EQ(r.stage1_count, goldens::kFreqRestrictStage1)
        << "threads=" << threads;
    EXPECT_EQ(HashDualStage(r), goldens::kFreqRestrictHash)
        << "threads=" << threads;
  }
}

TEST(GoldenDeterminismTest, IcSpreadMatchesPinnedOutputBitForBit) {
  const std::vector<NodeId> seeds = GoldenSeeds();
  for (size_t threads : kThreadCounts) {
    Rng rng(105);
    const double full = EstimateIcSpread(GoldenWeightedGraph(), seeds,
                                         /*trials=*/200, rng,
                                         /*max_steps=*/-1, threads);
    EXPECT_EQ(std::bit_cast<uint64_t>(full),
              std::bit_cast<uint64_t>(goldens::kIcSpreadFull))
        << "threads=" << threads << " value=" << full;

    Rng rng2(106);
    const double one_step = EstimateIcSpread(GoldenWeightedGraph(), seeds,
                                             /*trials=*/64, rng2,
                                             /*max_steps=*/1, threads);
    EXPECT_EQ(std::bit_cast<uint64_t>(one_step),
              std::bit_cast<uint64_t>(goldens::kIcSpreadOneStep))
        << "threads=" << threads << " value=" << one_step;
  }
}

TEST(GoldenDeterminismTest, IcSpreadCallerPoolIsObservationallyInvisible) {
  // A caller-owned workspace pool reused across calls (the Monte-Carlo
  // oracle pattern) must produce the same bits as call-local scratch.
  const std::vector<NodeId> seeds = GoldenSeeds();
  WorkspacePool pool;
  for (int repeat = 0; repeat < 3; ++repeat) {
    Rng rng(105);
    const double full =
        EstimateIcSpread(GoldenWeightedGraph(), seeds, /*trials=*/200, rng,
                         /*max_steps=*/-1, /*num_threads=*/1, &pool);
    EXPECT_EQ(std::bit_cast<uint64_t>(full),
              std::bit_cast<uint64_t>(goldens::kIcSpreadFull))
        << "repeat=" << repeat;
  }
}

TEST(GoldenDeterminismTest, RrSketchMatchesPinnedOutput) {
  for (size_t threads : kThreadCounts) {
    Rng rng(107);
    auto sketch = std::move(RrSketch::Generate(GoldenWeightedGraph(),
                                               /*count=*/500,
                                               /*max_steps=*/-1, rng,
                                               threads))
                      .ValueOrDie();
    EXPECT_EQ(HashRrSets(sketch.sets()), goldens::kRrSketchHash)
        << "threads=" << threads;
    auto seeds = std::move(sketch.SelectSeeds(5)).ValueOrDie();
    EXPECT_EQ(HashNodeVector(seeds), goldens::kRrSeedsHash)
        << "threads=" << threads;
  }
}

TEST(GoldenDeterminismTest, CascadeSimulatorsMatchPinnedOutput) {
  const std::vector<NodeId> seeds = GoldenSeeds();
  Rng lt(108);
  EXPECT_EQ(SimulateLtCascade(GoldenWeightedGraph(), seeds, lt),
            goldens::kLtCascadeSize);
  Rng ic(109);
  EXPECT_EQ(SimulateIcCascade(GoldenWeightedGraph(), seeds, ic),
            goldens::kIcCascadeSize);
}

TEST(GoldenDeterminismTest, WorkspaceOverloadsMatchAllocatingForms) {
  // The Workspace overloads must replay the identical RNG draw sequence,
  // including on REUSED (dirty) scratch.
  const std::vector<NodeId> seeds = GoldenSeeds();
  Workspace ws;
  for (int repeat = 0; repeat < 3; ++repeat) {
    Rng lt(108);
    EXPECT_EQ(SimulateLtCascade(GoldenWeightedGraph(), seeds, lt,
                                /*max_steps=*/-1, ws),
              goldens::kLtCascadeSize)
        << "repeat=" << repeat;
    Rng ic(109);
    EXPECT_EQ(SimulateIcCascade(GoldenWeightedGraph(), seeds, ic,
                                /*max_steps=*/-1, ws),
              goldens::kIcCascadeSize)
        << "repeat=" << repeat;
  }
}

}  // namespace
}  // namespace privim
