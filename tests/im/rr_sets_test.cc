#include "im/rr_sets.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_view.h"
#include "im/diffusion.h"
#include "im/seed_selection.h"

namespace privim {
namespace {

/// Step horizon of the full-length IC sketches most cases below draw.
constexpr int kUnbounded = -1;

TEST(RrSketchTest, GenerateValidatesArgs) {
  GraphBuilder b(0);
  Graph empty = std::move(b.Build()).ValueOrDie();
  Rng rng(1);
  EXPECT_FALSE(RrSketch::Generate(empty, 10, kUnbounded, rng).ok());

  Rng gen(2);
  Graph g = std::move(ErdosRenyi(10, 0.2, true, gen)).ValueOrDie();
  EXPECT_FALSE(RrSketch::Generate(g, 0, kUnbounded, rng).ok());
}

TEST(RrSketchTest, SetsContainTheirTargets) {
  Rng gen(3);
  Graph g = std::move(ErdosRenyi(30, 0.1, true, gen)).ValueOrDie();
  Rng rng(4);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 50, kUnbounded, rng)).ValueOrDie();
  ASSERT_EQ(sketch.num_sets(), 50u);
  for (const auto& rr : sketch.sets()) {
    ASSERT_FALSE(rr.empty());
    // Distinct members.
    std::vector<NodeId> sorted = rr;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(RrSketchTest, ZeroWeightGraphYieldsSingletonSets) {
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.0f).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 0.0f).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(5);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 40, kUnbounded, rng)).ValueOrDie();
  for (const auto& rr : sketch.sets()) EXPECT_EQ(rr.size(), 1u);
}

TEST(RrSketchTest, UnitWeightsReverseReachability) {
  // Path 0 -> 1 -> 2 with weight 1: the RR set of target t is {0..t}.
  GraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0f).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(6);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 30, kUnbounded, rng)).ValueOrDie();
  for (const auto& rr : sketch.sets()) {
    // Must contain node 0 (it reaches everything).
    EXPECT_NE(std::find(rr.begin(), rr.end(), 0u), rr.end());
  }
}

TEST(RrSketchTest, SpreadEstimateMatchesMonteCarlo) {
  Rng gen(7);
  Graph ba = std::move(BarabasiAlbert(100, 3, gen)).ValueOrDie();
  Graph g = std::move(WeightedCascade(ba)).ValueOrDie();
  Rng rng(8);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 4000, kUnbounded, rng))
          .ValueOrDie();
  const std::vector<NodeId> seeds = {0, 1, 2};
  const double rr_estimate = sketch.EstimateSpread(seeds);
  Rng mc_rng(9);
  const double mc_estimate = EstimateIcSpread(g, seeds, 2000, mc_rng);
  EXPECT_NEAR(rr_estimate, mc_estimate, 0.15 * mc_estimate);
}

/// Two-sided Hoeffding half-width for the mean of `m` i.i.d. draws in
/// [0, n], at failure probability `delta`: n * sqrt(ln(2/delta) / 2m).
double HoeffdingBound(double n, double m, double delta) {
  return n * std::sqrt(std::log(2.0 / delta) / (2.0 * m));
}

TEST(RrSketchTest, OneStepSetIsTargetPlusLiveInNeighbours) {
  // Unit weights make every in-edge live: at j = 1 each set is exactly
  // {target} ∪ N_in(target), and only the target is expanded. j = 0 keeps
  // the bare target and expands nothing.
  Rng gen(20);
  Graph g = std::move(DirectedScaleFree(60, 2, 2, gen)).ValueOrDie();
  const GraphView view(g);
  Rng rng(21);
  RrSketch one = std::move(RrSketch::Generate(g, 80, 1, rng)).ValueOrDie();
  EXPECT_EQ(one.max_steps(), 1);
  for (size_t s = 0; s < one.num_sets(); ++s) {
    const std::vector<NodeId>& rr = one.sets()[s];
    std::vector<NodeId> want = {rr[0]};
    ASSERT_TRUE(view.ForEachInEdge(rr[0], [&want](NodeId u, float) {
                  if (u != want[0]) want.push_back(u);
                }).ok());
    std::vector<NodeId> got = rr;
    std::sort(got.begin() + 1, got.end());
    std::sort(want.begin() + 1, want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    EXPECT_EQ(got, want) << "set " << s;
    EXPECT_EQ(one.expanded()[s], 1u) << "set " << s;
  }
  Rng rng0(22);
  RrSketch zero = std::move(RrSketch::Generate(g, 40, 0, rng0)).ValueOrDie();
  for (size_t s = 0; s < zero.num_sets(); ++s) {
    EXPECT_EQ(zero.sets()[s].size(), 1u);
    EXPECT_EQ(zero.expanded()[s], 0u);
  }
  Rng rng_u(23);
  RrSketch unbounded =
      std::move(RrSketch::Generate(g, 40, -7, rng_u)).ValueOrDie();
  EXPECT_EQ(unbounded.max_steps(), kUnbounded);
  for (size_t s = 0; s < unbounded.num_sets(); ++s) {
    EXPECT_EQ(unbounded.expanded()[s], unbounded.sets()[s].size());
  }
}

TEST(RrSketchTest, StepBoundedEstimateMatchesExactUnitWeightSpread) {
  // Unit weights make every RR set a deterministic function of its
  // uniform target, so the estimate is a mean of m i.i.d. draws in
  // [0, n] whose expectation is the exact j-step closure: Hoeffding
  // bounds the error. Directed arcs catch an in/out mix-up.
  Rng gen(24);
  Graph g = std::move(DirectedScaleFree(400, 3, 3, gen)).ValueOrDie();
  const double n = static_cast<double>(g.num_nodes());
  constexpr size_t kSets = 8000;
  const double bound = HoeffdingBound(n, kSets, 1e-6);
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {5, 17, 40}, {1, 2, 3, 100, 200, 300, 399}};
  for (int steps : {1, 2, 3}) {
    Rng rng(25 + static_cast<uint64_t>(steps));
    RrSketch sketch =
        std::move(RrSketch::Generate(g, kSets, steps, rng)).ValueOrDie();
    for (const std::vector<NodeId>& seeds : seed_sets) {
      const double exact =
          static_cast<double>(ExactUnitWeightSpread(g, seeds, steps));
      EXPECT_NEAR(sketch.EstimateSpread(seeds), exact, bound)
          << "j=" << steps << ", " << seeds.size() << " seeds";
    }
  }
  // The bound separates horizons, so a sketch answering the wrong j
  // would fail above.
  const std::vector<NodeId>& wide = seed_sets.back();
  EXPECT_GT(static_cast<double>(ExactUnitWeightSpread(g, wide, 2)) -
                static_cast<double>(ExactUnitWeightSpread(g, wide, 1)),
            2.0 * bound);
}

TEST(RrSketchTest, StepBoundedEstimateMatchesStepBoundedMonteCarlo) {
  // Weighted cascade: both estimators are means of i.i.d. draws in
  // [0, n] with the j-step IC spread as expectation, so they agree within
  // the sum of their Hoeffding bounds (each at delta / 2).
  Rng gen(30);
  Graph ba = std::move(BarabasiAlbert(200, 3, gen)).ValueOrDie();
  Graph g = std::move(WeightedCascade(ba)).ValueOrDie();
  const double n = static_cast<double>(g.num_nodes());
  constexpr size_t kSets = 20000;
  constexpr size_t kTrials = 20000;
  constexpr double kDelta = 1e-6;
  const double bound = HoeffdingBound(n, kSets, kDelta / 2) +
                       HoeffdingBound(n, kTrials, kDelta / 2);
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < 40; s += 2) seeds.push_back(s);
  for (int steps : {1, 2}) {
    Rng rng(31 + static_cast<uint64_t>(steps));
    RrSketch sketch =
        std::move(RrSketch::Generate(g, kSets, steps, rng)).ValueOrDie();
    Rng mc_rng(41 + static_cast<uint64_t>(steps));
    const double mc = EstimateIcSpread(g, seeds, kTrials, mc_rng, steps);
    EXPECT_NEAR(sketch.EstimateSpread(seeds), mc, bound) << "j=" << steps;
  }
}

TEST(RrSketchTest, ScratchEstimateMatchesAllocatingForm) {
  Rng gen(17);
  Graph ba = std::move(BarabasiAlbert(80, 3, gen)).ValueOrDie();
  Graph g = std::move(WeightedCascade(ba)).ValueOrDie();
  Rng rng(18);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 500, kUnbounded, rng))
          .ValueOrDie();
  VisitedSet covered;
  // One VisitedSet reused across estimates (the serving hot path): each
  // estimate must be bit-identical to a fresh allocating call.
  for (const std::vector<NodeId>& seeds :
       {std::vector<NodeId>{0}, std::vector<NodeId>{0, 1, 2},
        std::vector<NodeId>{7, 7, 40}, std::vector<NodeId>{}}) {
    EXPECT_EQ(sketch.EstimateSpread(seeds, covered),
              sketch.EstimateSpread(seeds))
        << "seed count " << seeds.size();
  }
}

TEST(RrSketchTest, EstimateMonotoneInSeeds) {
  Rng gen(10);
  Graph g = std::move(ErdosRenyi(50, 0.05, true, gen)).ValueOrDie();
  Rng rng(11);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 500, kUnbounded, rng))
          .ValueOrDie();
  std::vector<NodeId> seeds;
  double prev = 0.0;
  for (NodeId s = 0; s < 10; ++s) {
    seeds.push_back(s);
    const double est = sketch.EstimateSpread(seeds);
    EXPECT_GE(est, prev);
    prev = est;
  }
}

TEST(RrSketchTest, SelectSeedsPicksTheHub) {
  // Star with unit weights: the hub is in every RR set, so greedy
  // max-coverage must pick it first.
  GraphBuilder b(20);
  for (NodeId v = 1; v < 20; ++v) ASSERT_TRUE(b.AddEdge(0, v, 1.0f).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(12);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 200, kUnbounded, rng))
          .ValueOrDie();
  std::vector<NodeId> seeds =
      std::move(sketch.SelectSeeds(1)).ValueOrDie();
  EXPECT_EQ(seeds[0], 0u);
}

TEST(RrSketchTest, SelectSeedsNearCelfOnUnitWeights) {
  Rng gen(13);
  Graph g = std::move(BarabasiAlbert(200, 3, gen)).ValueOrDie();
  Rng rng(14);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 3000, kUnbounded, rng))
          .ValueOrDie();
  std::vector<NodeId> ris_seeds =
      std::move(sketch.SelectSeeds(10)).ValueOrDie();

  std::vector<NodeId> candidates(g.num_nodes());
  for (size_t u = 0; u < candidates.size(); ++u) {
    candidates[u] = static_cast<NodeId>(u);
  }
  // Unit weights, unlimited steps: exact closure spread for both.
  SpreadOracle oracle = MakeExactUnitOracle(g, 1000000);
  SeedSelection celf =
      std::move(CelfSelect(candidates, 10, oracle)).ValueOrDie();
  const double ris_spread = oracle(ris_seeds);
  EXPECT_GE(ris_spread, 0.9 * celf.spread);
}

TEST(RrSketchTest, SelectSeedsValidatesK) {
  Rng gen(15);
  Graph g = std::move(ErdosRenyi(10, 0.2, true, gen)).ValueOrDie();
  Rng rng(16);
  RrSketch sketch =
      std::move(RrSketch::Generate(g, 50, kUnbounded, rng)).ValueOrDie();
  EXPECT_FALSE(sketch.SelectSeeds(0).ok());
  EXPECT_FALSE(sketch.SelectSeeds(11).ok());
  EXPECT_TRUE(sketch.SelectSeeds(10).ok());
}

}  // namespace
}  // namespace privim
