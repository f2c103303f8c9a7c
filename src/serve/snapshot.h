#ifndef PRIVIM_SERVE_SNAPSHOT_H_
#define PRIVIM_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "nn/gnn.h"

namespace privim {

/// One immutable, servable version of the model: the loaded GnnModel plus
/// the one thing serving derives from it over the resident graph — every
/// node's pre-sigmoid seed logit and the nodes ranked by it.
///
/// Ranking is post-processing of the frozen model, so it runs ONCE, at
/// build time: FromModel computes the logits with InferSeedLogits
/// (nn/gnn.h: one forward-only pass of the Native seed-logits plan on a
/// transient arena that holds no gradient buffers) and sorts the node ids
/// under the serving order (logit descending, node id ascending on ties).
/// The plan, the graph context, the feature matrix and the arena are
/// released before FromModel returns. A build therefore
/// costs one forward pass plus an O(n log n) sort, paid by the producer
/// before publication; a top-k query over the whole graph is then an O(k)
/// prefix of ranked(), and a candidate-restricted one an O(|C|) gather
/// plus an O(|C| log k) partial sort (serve/query_engine.h).
///
/// Snapshots are the unit of hot swap. The Server publishes the current
/// snapshot behind a shared_ptr (RCU style): workers take a reference per
/// batch, queries in flight keep the old version alive after a swap, and
/// the last reference releases it. Everything here is written once at
/// build time and only read afterwards, so concurrent query execution
/// needs no further synchronization.
///
/// A snapshot is built against ONE resident graph (the logits are a
/// function of its structure); `num_nodes()` is validated by the Server at
/// swap time.
///
/// Dynamic graphs: a snapshot may additionally OWN the graph it was
/// built against (the graph-owning FromModel overload). That is the
/// unit the streaming pipeline publishes — graph and model swap together,
/// atomically, through Server::SwapGraphAndSnapshot, and the retired
/// graph stays alive exactly as long as in-flight queries still hold the
/// retired snapshot (docs/streaming.md).
class ModelSnapshot {
 public:
  /// Builds a servable snapshot from a loaded model. Fails with
  /// FailedPrecondition when the model's input width does not match the
  /// structural feature dim of `graph` (kNodeFeatureDim), and with
  /// InvalidArgument, naming the first such node, when a seed logit is not
  /// finite (NaN or infinite parameters cannot be ranked). The snapshot
  /// borrows `graph` (owned_graph() stays null); the caller keeps it
  /// alive — the Server's original static-graph contract.
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      std::unique_ptr<GnnModel> model, const Graph& graph);

  /// Graph-owning variant: the snapshot keeps `graph` alive and exposes
  /// it via owned_graph(). Required by Server::SwapGraphAndSnapshot.
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      std::unique_ptr<GnnModel> model, std::shared_ptr<const Graph> graph);

  /// One-call restore-and-compile: LoadModel(path) + FromModel. Error
  /// statuses name `path` and hint at version/artifact mismatches
  /// (nn/serialization.h).
  static Result<std::shared_ptr<const ModelSnapshot>> Load(
      const std::string& path, const Graph& graph);

  /// Process-unique identity, assigned at construction (monotonic from 1).
  /// Responses carry this id, which is what makes every answer
  /// attributable to exactly one snapshot.
  uint64_t id() const { return id_; }

  /// Node count of the graph this snapshot was built against.
  size_t num_nodes() const { return logits_.size(); }

  const GnnModel& model() const { return *model_; }

  /// Pre-sigmoid seed logit of every node, indexed by node id. Ranking by
  /// logits gives the same order as the probabilities but is immune to
  /// float32 sigmoid saturation at the top of the ranking.
  std::span<const float> logits() const { return logits_; }

  /// Every node id, best first: logit descending, node id ascending on
  /// ties. Top-k over the whole graph is the first k entries.
  std::span<const NodeId> ranked() const { return ranked_; }

  /// The serving order as a comparator: true iff node `a` ranks strictly
  /// before node `b`. FromModel admits only finite logits, so this is a
  /// strict total order and any sort under it — full or partial, over all
  /// nodes or a candidate subset — is deterministic.
  bool RanksBefore(NodeId a, NodeId b) const {
    if (logits_[a] != logits_[b]) return logits_[a] > logits_[b];
    return a < b;
  }

  /// The graph this snapshot keeps alive, or null when it was built
  /// against a borrowed graph (the static-serving path).
  const std::shared_ptr<const Graph>& owned_graph() const { return graph_; }

 private:
  ModelSnapshot() = default;

  uint64_t id_ = 0;
  std::shared_ptr<const Graph> graph_;
  std::unique_ptr<GnnModel> model_;
  std::vector<float> logits_;
  std::vector<NodeId> ranked_;
};

}  // namespace privim

#endif  // PRIVIM_SERVE_SNAPSHOT_H_
