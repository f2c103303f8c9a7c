#include "shard/shard_plan.h"

#include <span>

#include "common/rng.h"
#include "common/string_util.h"

namespace privim {

size_t ShardPlan::AssignShard(NodeId u, uint64_t salt, size_t num_shards) {
  if (num_shards <= 1) return 0;
  // One SplitMix64 step fully mixes (salt, id); the modulo bias over
  // num_shards <= 2^32 partitions of a 64-bit hash is negligible and,
  // crucially, identical everywhere.
  SplitMix64 mix(salt ^ (0x9e3779b97f4a7c15ull * (uint64_t{u} + 1)));
  return static_cast<size_t>(mix.Next() % num_shards);
}

Result<ShardPlan> ShardPlan::Partition(const Graph& g, size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard.num_shards must be >= 1, got 0");
  }
  if (num_shards > g.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("shard.num_shards (%zu) exceeds the graph's %zu nodes",
                  num_shards, g.num_nodes()));
  }

  ShardPlan plan;
  plan.shards_.resize(num_shards);

  // Assignment pass: owner shard and local id of every node. Local ids
  // count up in original-id order, so nodes(s) comes out ascending.
  std::vector<uint32_t> shard_of(g.num_nodes());
  std::vector<NodeId> local_id(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const size_t s = AssignShard(u, kShardSalt, num_shards);
    shard_of[u] = static_cast<uint32_t>(s);
    local_id[u] = static_cast<NodeId>(plan.shards_[s].nodes.size());
    plan.shards_[s].nodes.push_back(u);
  }

  // Cut accounting in one pre-pass, outside the edge streams: Build()
  // replays each stream twice (count + place), so a counter inside the
  // stream would double.
  PRIVIM_RETURN_NOT_OK(g.ForEachEdge([&](NodeId u, NodeId v, float) {
    if (shard_of[u] == shard_of[v]) {
      ++plan.intra_arcs_;
    } else {
      ++plan.cut_arcs_;
    }
  }));

  for (size_t s = 0; s < num_shards; ++s) {
    ShardPart& part = plan.shards_[s];
    GraphBuilder builder(part.nodes.size());
    const std::vector<NodeId>* nodes = &part.nodes;
    const uint32_t shard_tag = static_cast<uint32_t>(s);
    PRIVIM_RETURN_NOT_OK(builder.AddEdgeStream(
        [&g, nodes, &shard_of, &local_id, shard_tag](EdgeSink& sink) {
          for (NodeId u : *nodes) {
            const std::span<const NodeId> nbrs = g.OutNeighbors(u);
            const std::span<const float> weights = g.OutWeights(u);
            for (size_t i = 0; i < nbrs.size(); ++i) {
              const NodeId v = nbrs[i];
              if (shard_of[v] != shard_tag) continue;
              PRIVIM_RETURN_NOT_OK(
                  sink.Add(local_id[u], local_id[v], weights[i]));
            }
          }
          return Status::OK();
        }));
    GraphBuildOptions build_options;
    // Eager in-CSR: shard graphs cross thread boundaries immediately and
    // EnsureInCsr() is not thread-safe (the satellite invariant).
    build_options.build_in_csr = true;
    PRIVIM_ASSIGN_OR_RETURN(part.graph, builder.Build(build_options));
  }

  return plan;
}

}  // namespace privim
