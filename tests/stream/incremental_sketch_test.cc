// Incremental-vs-full equivalence suite (docs/streaming.md): repaired RR
// sketches must be *bit-identical* to a from-scratch rebuild at the same
// RNG stream, at every thread count and step horizon; hop-ball
// invalidation must drop exactly the affected balls and serve identical
// contents afterwards.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "graph/graph_view.h"
#include "graph/update_stream.h"
#include "im/rr_sets.h"
#include "runtime/scratch.h"

namespace privim {
namespace {

Graph MakeTestGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  Graph g = std::move(WattsStrogatz(n, 3, 0.15, rng)).ValueOrDie();
  EXPECT_TRUE(g.EnsureInCsr().ok());
  return g;
}

/// Applies `batches` synthetic batches and returns the union of changed
/// in-rows (sorted, deduped) — what the pipeline would feed Repair.
std::vector<NodeId> ApplyBatches(GraphDelta& delta, int batches,
                                 uint64_t seed) {
  std::vector<NodeId> changed;
  StreamGenConfig cfg;
  cfg.events_per_batch = 24;
  for (int b = 0; b < batches; ++b) {
    GraphView view(delta.base(), &delta);
    UpdateBatch batch =
        MakeSyntheticBatch(view, static_cast<uint64_t>(b), seed, cfg);
    Result<ApplyEffects> fx = ApplyUpdateBatch(delta, batch);
    EXPECT_TRUE(fx.ok());
    changed.insert(changed.end(), fx->changed_in_rows.begin(),
                   fx->changed_in_rows.end());
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

/// The step horizons every equivalence case runs at: the paper's j = 1,
/// a two-level prefix, and unbounded (full-length IC) sets.
constexpr int kHorizons[] = {1, 2, -1};

class RepairEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RepairEquivalenceTest, RepairedSketchIsBitIdenticalToRebuild) {
  const size_t threads = GetParam();
  for (int steps : kHorizons) {
    SCOPED_TRACE(::testing::Message() << "max_steps=" << steps);
    Graph base = MakeTestGraph(120, 0xA11CE);
    GraphDelta delta(base);
    GraphView view(base, &delta);

    Rng rng(0xFACE);
    RrSketch sketch = std::move(RrSketch::Generate(view, 96, steps, rng,
                                                   threads))
                          .ValueOrDie();
    const uint64_t stream_base = sketch.stream_base();

    std::vector<NodeId> changed = ApplyBatches(delta, 4, 0x5eed);
    ASSERT_FALSE(changed.empty());

    Result<size_t> repaired = sketch.Repair(view, changed, threads);
    ASSERT_TRUE(repaired.ok());
    EXPECT_GT(*repaired, 0u);

    RrSketch rebuilt = std::move(RrSketch::Regenerate(view, 96, steps,
                                                      stream_base, threads))
                           .ValueOrDie();
    EXPECT_EQ(sketch.sets(), rebuilt.sets());
    EXPECT_EQ(sketch.expanded(), rebuilt.expanded());
    EXPECT_EQ(sketch.stream_base(), rebuilt.stream_base());
    EXPECT_EQ(sketch.max_steps(), rebuilt.max_steps());

    // And the repaired sketch equals generation on the compacted CSR: the
    // GraphView ordering contract (ascending merge == compacted row order)
    // is what makes the draw sequences line up.
    Graph compacted = std::move(delta.Compact()).ValueOrDie();
    RrSketch on_compacted =
        std::move(RrSketch::Regenerate(GraphView(compacted), 96, steps,
                                       stream_base, threads))
            .ValueOrDie();
    EXPECT_EQ(sketch.sets(), on_compacted.sets());
  }
}

TEST_P(RepairEquivalenceTest, RepairAfterEveryBatchMatchesOneShotRebuild) {
  // Repair applied incrementally after each batch must converge to the
  // same sketch as one rebuild at the end — repairs compose.
  const size_t threads = GetParam();
  for (int steps : kHorizons) {
    SCOPED_TRACE(::testing::Message() << "max_steps=" << steps);
    Graph base = MakeTestGraph(100, 0xB0B);
    GraphDelta delta(base);
    GraphView view(base, &delta);

    Rng rng(0xCAB);
    RrSketch sketch = std::move(RrSketch::Generate(view, 64, steps, rng,
                                                   threads))
                          .ValueOrDie();
    StreamGenConfig cfg;
    cfg.events_per_batch = 16;
    for (int b = 0; b < 5; ++b) {
      UpdateBatch batch =
          MakeSyntheticBatch(view, static_cast<uint64_t>(b), 0x77, cfg);
      Result<ApplyEffects> fx = ApplyUpdateBatch(delta, batch);
      ASSERT_TRUE(fx.ok());
      ASSERT_TRUE(sketch.Repair(view, fx->changed_in_rows, threads).ok());
    }
    RrSketch rebuilt =
        std::move(RrSketch::Regenerate(view, 64, steps, sketch.stream_base(),
                                       threads))
            .ValueOrDie();
    EXPECT_EQ(sketch.sets(), rebuilt.sets());
    EXPECT_EQ(sketch.expanded(), rebuilt.expanded());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RepairEquivalenceTest,
                         ::testing::Values(1, 8));

TEST(RepairTest, SmallUpdateRepairsFewSets) {
  // The O(ball) locality contract: one edge into one node of a large
  // weakly-coupled graph must not regenerate the whole sketch. Weights are
  // low so RR sets stay small — with unit weights every full-length IC
  // cascade spans the component and every set is legitimately stale.
  GraphBuilder b(4000);
  for (NodeId u = 0; u < 4000; ++u) {
    EXPECT_TRUE(b.AddUndirectedEdge(u, (u + 1) % 4000, 0.05f).ok());
    EXPECT_TRUE(b.AddUndirectedEdge(u, (u + 7) % 4000, 0.05f).ok());
  }
  Graph base = std::move(b.Build()).ValueOrDie();
  GraphDelta delta(base);
  GraphView view(base, &delta);
  Rng rng(0x42);
  RrSketch sketch =
      std::move(RrSketch::Generate(view, 256, /*max_steps=*/-1, rng, 1))
          .ValueOrDie();

  ASSERT_TRUE(delta.AddEdge(10, 20, 0.5f).ok());
  Result<size_t> repaired =
      sketch.Repair(view, std::vector<NodeId>{20}, 1);
  ASSERT_TRUE(repaired.ok());
  EXPECT_LT(*repaired, sketch.num_sets() / 4)
      << "single-arc repair regenerated " << *repaired << " of "
      << sketch.num_sets() << " sets — locality is broken";
}

TEST(RepairTest, NodeCountChangeForcesFullRebuild) {
  // The full rebuild keeps the sketch's horizon.
  Graph base = MakeTestGraph(60, 0xF00);
  GraphDelta delta(base);
  GraphView view(base, &delta);
  Rng rng(0x43);
  RrSketch sketch =
      std::move(RrSketch::Generate(view, 32, /*max_steps=*/2, rng, 1))
          .ValueOrDie();

  ASSERT_TRUE(delta.AddNode().ok());
  Result<size_t> repaired = sketch.Repair(view, std::vector<NodeId>{}, 1);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, sketch.num_sets());
  EXPECT_EQ(sketch.max_steps(), 2);
  RrSketch rebuilt = std::move(RrSketch::Regenerate(
                                   view, 32, 2, sketch.stream_base(), 1))
                         .ValueOrDie();
  EXPECT_EQ(sketch.sets(), rebuilt.sets());
  EXPECT_EQ(sketch.num_nodes(), view.num_nodes());
}

TEST(RepairTest, OneStepRepairsOnlySetsWhoseTargetInRowChanged) {
  // At j = 1 a set reads only its target's in-row. A batch of arcs into
  // non-target nodes (from targets, whose out-rows change) repairs
  // nothing; an arc into a target repairs exactly the sets drawn at it.
  Graph base = MakeTestGraph(200, 0x1517);
  GraphDelta delta(base);
  GraphView view(base, &delta);
  Rng rng(0x44);
  RrSketch sketch =
      std::move(RrSketch::Generate(view, 48, /*max_steps=*/1, rng, 1))
          .ValueOrDie();
  std::vector<uint8_t> is_target(view.num_nodes(), 0);
  for (const std::vector<NodeId>& rr : sketch.sets()) is_target[rr[0]] = 1;
  std::vector<NodeId> heads;
  for (NodeId v = 0; v < view.num_nodes() && heads.size() < 8; ++v) {
    if (!is_target[v]) heads.push_back(v);
  }
  const NodeId target = sketch.sets()[0][0];
  std::vector<NodeId> changed;
  for (NodeId head : heads) {
    if (delta.AddEdge(target, head, 1.0f).ok()) changed.push_back(head);
  }
  ASSERT_FALSE(changed.empty());
  Result<size_t> repaired = sketch.Repair(view, changed, 1);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, 0u);
  RrSketch rebuilt = std::move(RrSketch::Regenerate(
                                   view, 48, 1, sketch.stream_base(), 1))
                         .ValueOrDie();
  EXPECT_EQ(sketch.sets(), rebuilt.sets());

  size_t drawn_at_target = 0;
  for (const std::vector<NodeId>& rr : sketch.sets()) {
    drawn_at_target += rr[0] == target ? 1 : 0;
  }
  bool added = false;
  for (size_t i = 0; i < heads.size() && !added; ++i) {
    added = delta.AddEdge(heads[i], target, 1.0f).ok();
  }
  ASSERT_TRUE(added);
  repaired = sketch.Repair(view, std::vector<NodeId>{target}, 1);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, drawn_at_target);
  rebuilt = std::move(RrSketch::Regenerate(view, 48, 1,
                                           sketch.stream_base(), 1))
                .ValueOrDie();
  EXPECT_EQ(sketch.sets(), rebuilt.sets());
}

TEST(HopBallCacheTest, InvalidateDropsExactlyAffectedBalls) {
  // Two disjoint 1-hop balls; changing a node inside one drops that ball
  // and only that ball, and Retarget serves the survivor unchanged.
  GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_TRUE(b.AddEdge(3, 4).ok());
  ASSERT_TRUE(b.AddEdge(4, 5).ok());
  Graph g = std::move(b.Build()).ValueOrDie();

  HopBallCache cache(8);
  cache.Bind(g.IdentityFingerprint(), 1);
  HopBall& ball0 = cache.InsertSlot(0);
  ball0.nodes = {{0, 0}, {1, 1}};
  HopBall& ball3 = cache.InsertSlot(3);
  ball3.nodes = {{3, 0}, {4, 1}};
  ASSERT_EQ(cache.size(), 2u);

  // Out-row of node 4 changed (arc 4 -> 5 mutated): only ball3 holds 4.
  const size_t dropped =
      cache.Invalidate([](uint32_t n) { return n == 4; });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(cache.size(), 1u);

  cache.Retarget(g.IdentityFingerprint() ^ 0x1234);
  const HopBall* kept = cache.Lookup(0);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->nodes,
            (std::vector<std::pair<uint32_t, int32_t>>{{0, 0}, {1, 1}}));
  EXPECT_EQ(cache.Lookup(3), nullptr);
}

}  // namespace
}  // namespace privim
