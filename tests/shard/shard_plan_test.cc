// ShardPlan: deterministic node assignment, disjoint cover, cut-edge
// accounting, local-graph fidelity, and the single-shard identity.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "shard/shard_plan.h"

namespace privim {
namespace {

Graph TestGraph(uint64_t seed = 7, size_t nodes = 120) {
  Rng rng(seed);
  return std::move(ErdosRenyi(nodes, 0.08, /*directed=*/true, rng))
      .ValueOrDie();
}

TEST(ShardPlanTest, AssignShardIsDeterministicAndInRange) {
  for (NodeId u = 0; u < 500; ++u) {
    const size_t s = ShardPlan::AssignShard(u, kShardSalt, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, ShardPlan::AssignShard(u, kShardSalt, 4));
  }
  // Single shard short-circuits.
  EXPECT_EQ(ShardPlan::AssignShard(123, kShardSalt, 1), 0u);
  // The salt actually matters: at least one node of many moves.
  bool moved = false;
  for (NodeId u = 0; u < 100 && !moved; ++u) {
    moved = ShardPlan::AssignShard(u, 1, 4) !=
            ShardPlan::AssignShard(u, 2, 4);
  }
  EXPECT_TRUE(moved);
}

TEST(ShardPlanTest, PartitionCoversNodesDisjointly) {
  Graph g = TestGraph();
  ShardPlan plan = std::move(ShardPlan::Partition(g, 4)).ValueOrDie();
  ASSERT_EQ(plan.num_shards(), 4u);

  std::set<NodeId> seen;
  size_t total = 0;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const std::vector<NodeId>& nodes = plan.nodes(s);
    total += nodes.size();
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_TRUE(seen.insert(nodes[i]).second)
          << "node " << nodes[i] << " owned twice";
      EXPECT_EQ(plan.ShardOf(nodes[i]), s);
      EXPECT_EQ(plan.ToOriginal(s, static_cast<NodeId>(i)), nodes[i]);
      if (i > 0) EXPECT_LT(nodes[i - 1], nodes[i]) << "not ascending";
    }
    EXPECT_EQ(plan.graph(s).num_nodes(), nodes.size());
  }
  EXPECT_EQ(total, g.num_nodes());
}

TEST(ShardPlanTest, CutPlusIntraEqualsAllArcsAndShardsHoldIntraOnly) {
  Graph g = TestGraph();
  ShardPlan plan = std::move(ShardPlan::Partition(g, 3)).ValueOrDie();
  EXPECT_EQ(plan.cut_arcs() + plan.intra_arcs(), g.num_edges());
  EXPECT_GT(plan.cut_arcs(), 0u);  // An ER graph at 3 shards has cuts.

  // Every original intra arc appears in its shard graph with the same
  // weight, and the shard graphs hold nothing else.
  uint64_t found = 0;
  ASSERT_TRUE(g.ForEachEdge([&](NodeId u, NodeId v, float w) {
                 const size_t su = plan.ShardOf(u);
                 if (su != plan.ShardOf(v)) return;
                 const std::vector<NodeId>& nodes = plan.nodes(su);
                 const NodeId lu = static_cast<NodeId>(
                     std::lower_bound(nodes.begin(), nodes.end(), u) -
                     nodes.begin());
                 const NodeId lv = static_cast<NodeId>(
                     std::lower_bound(nodes.begin(), nodes.end(), v) -
                     nodes.begin());
                 EXPECT_TRUE(plan.graph(su).HasEdge(lu, lv));
                 (void)w;
                 ++found;
               }).ok());
  uint64_t shard_arcs = 0;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    shard_arcs += plan.graph(s).num_edges();
  }
  EXPECT_EQ(found, plan.intra_arcs());
  EXPECT_EQ(shard_arcs, plan.intra_arcs());
}

TEST(ShardPlanTest, SingleShardIsIdentity) {
  Graph g = TestGraph();
  ShardPlan plan = std::move(ShardPlan::Partition(g, 1)).ValueOrDie();
  EXPECT_EQ(plan.cut_arcs(), 0u);
  EXPECT_EQ(plan.intra_arcs(), g.num_edges());
  ASSERT_EQ(plan.graph(0).num_nodes(), g.num_nodes());
  ASSERT_EQ(plan.graph(0).num_edges(), g.num_edges());
  EXPECT_EQ(plan.graph(0).Edges(), g.Edges());
}

TEST(ShardPlanTest, ShardGraphsAreBuiltInCsrEagerly) {
  // Shard graphs cross thread boundaries immediately; a lazy EnsureInCsr
  // there would be a data race (see shard_pipeline_test.cc for the
  // concurrent-readers proof).
  Graph g = TestGraph();
  ShardPlan plan = std::move(ShardPlan::Partition(g, 2)).ValueOrDie();
  EXPECT_TRUE(plan.graph(0).has_in_csr());
  EXPECT_TRUE(plan.graph(1).has_in_csr());
}

TEST(ShardPlanTest, PartitionIsDeterministic) {
  Graph g1 = TestGraph();
  Graph g2 = TestGraph();
  ShardPlan a = std::move(ShardPlan::Partition(g1, 4)).ValueOrDie();
  ShardPlan b = std::move(ShardPlan::Partition(g2, 4)).ValueOrDie();
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a.nodes(s), b.nodes(s));
    EXPECT_EQ(a.graph(s).Edges(), b.graph(s).Edges());
  }
}

TEST(ShardPlanTest, RejectsBadShardCounts) {
  Graph g = TestGraph();
  EXPECT_FALSE(ShardPlan::Partition(g, 0).ok());
  auto too_many = ShardPlan::Partition(g, g.num_nodes() + 1);
  ASSERT_FALSE(too_many.ok());
  EXPECT_NE(too_many.status().ToString().find("exceeds"),
            std::string::npos);
}

}  // namespace
}  // namespace privim
