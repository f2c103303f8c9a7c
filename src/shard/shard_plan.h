#ifndef PRIVIM_SHARD_SHARD_PLAN_H_
#define PRIVIM_SHARD_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace privim {

/// Mixing salt of every shard assignment. Train and eval graphs of one run
/// are partitioned with the same salt, so a node's shard is a property of
/// its id, not of which split it sits in.
inline constexpr uint64_t kShardSalt = 0x5eed5a17u;

/// Deterministic shared-nothing partition of a Graph: every node is owned
/// by exactly one shard (SplitMix64 hash of its id — stable across runs,
/// platforms, and thread counts), each shard materializes the subgraph
/// induced by its nodes as an independent in-CSR `Graph` with local ids,
/// and arcs crossing shards ("cut arcs") are counted but dropped entirely
/// — no shard ever observes them, so they contribute nothing to any
/// shard's DP mechanism (docs/sharding.md, "Cut edges and privacy").
///
/// Local ids preserve original order: nodes(s) is ascending, and local id
/// i within shard s is original id nodes(s)[i]. With num_shards = 1 the
/// partition is the identity — shard 0's graph has the same nodes, arcs,
/// and weights as the input (the basis of the shards=1 bit-identity
/// contract, tested in tests/shard/merge_determinism_test.cc).
class ShardPlan {
 public:
  /// Pure function of (node id, salt, num_shards): which shard owns `u`.
  static size_t AssignShard(NodeId u, uint64_t salt, size_t num_shards);

  /// Partitions `g` into `num_shards` node-disjoint parts (1 <= num_shards
  /// <= num_nodes, else InvalidArgument). Streams each shard's arcs through
  /// GraphBuilder::AddEdgeStream (no materialized edge lists) and builds
  /// every shard graph eagerly in-CSR: shard graphs are consumed from
  /// concurrent shard tasks, and a lazy Graph::EnsureInCsr() there would
  /// be a data race (tests/shard/shard_pipeline_test.cc pins this).
  static Result<ShardPlan> Partition(const Graph& g, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }

  /// Shard s's induced subgraph over local ids [0, nodes(s).size()).
  const Graph& graph(size_t s) const { return shards_[s].graph; }

  /// Local -> original id map of shard s (ascending original ids).
  const std::vector<NodeId>& nodes(size_t s) const {
    return shards_[s].nodes;
  }

  /// Which shard owns original node `u`.
  size_t ShardOf(NodeId u) const {
    return AssignShard(u, kShardSalt, shards_.size());
  }

  /// Original id of shard s's local node `local`.
  NodeId ToOriginal(size_t s, NodeId local) const {
    return shards_[s].nodes[local];
  }

  /// Arcs of the input whose endpoints fall in different shards (dropped)
  /// / in the same shard (kept). cut_arcs + intra_arcs == input arc count.
  uint64_t cut_arcs() const { return cut_arcs_; }
  uint64_t intra_arcs() const { return intra_arcs_; }

 private:
  struct ShardPart {
    Graph graph;
    std::vector<NodeId> nodes;
  };

  std::vector<ShardPart> shards_;
  uint64_t cut_arcs_ = 0;
  uint64_t intra_arcs_ = 0;
};

}  // namespace privim

#endif  // PRIVIM_SHARD_SHARD_PLAN_H_
