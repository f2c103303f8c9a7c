#ifndef PRIVIM_STREAM_STREAM_PIPELINE_H_
#define PRIVIM_STREAM_STREAM_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/stream_state.h"
#include "common/result.h"
#include "core/privim.h"
#include "core/retrain_policy.h"
#include "dp/continual_accountant.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "graph/graph_view.h"
#include "graph/update_stream.h"
#include "im/rr_sets.h"
#include "runtime/scratch.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace privim {

/// Configuration of one streaming run (docs/streaming.md).
struct StreamOptions {
  /// Method executed at every retraining round (through the Pipeline
  /// facade, serial path). `method.checkpoint` is ignored — the stream
  /// pipeline owns checkpointing at batch granularity; per-round inner
  /// snapshots are disabled.
  PrivImConfig method;
  /// When to retrain (drift / staleness triggers).
  RetrainPolicyConfig retrain;
  /// Synthetic-stream shape for Step() (drivers, benches, tests).
  StreamGenConfig gen;
  /// Resident RR-sketch size (must be >= 1: incremental sketch
  /// maintenance is the streaming pipeline's core service).
  size_t rr_sketch_sets = 256;
  /// Diffusion steps j of the deterministic utility metric (the exact
  /// unit-weight spread of the released seeds on the current graph), and
  /// the step horizon of the resident RR sketch. Bound into the checkpoint
  /// fingerprint: a resume with another value fails.
  int utility_steps = 1;
  /// Base RNG key: the synthetic stream, the sketch streams, and every
  /// retraining round derive their keys from it.
  uint64_t seed = 42;
  /// Worker threads for sketch generation/repair and retraining (0 = the
  /// global runtime default). Bit-identical for every value.
  size_t num_threads = 0;
  /// Directory for batch-boundary snapshots; empty disables them.
  std::string checkpoint_dir;
  /// Resume from checkpoint_dir's snapshot when one exists (fresh start
  /// otherwise).
  bool resume = false;
};

/// The dynamic-graph pipeline: a mutable GraphDelta overlay over a CSR
/// base absorbing a timestamped update stream, with incremental RR-sketch
/// repair, hop-ball cache invalidation, drift/staleness-triggered DP-GNN
/// retraining through the Pipeline facade, and continual-observation
/// privacy accounting (docs/streaming.md).
///
/// Per applied batch:
///  1. events mutate the overlay (ApplyUpdateBatch), reporting exactly
///     which adjacency rows changed;
///  2. the resident RR sketch repairs only the sets with a changed in-row
///     among their expanded nodes (bit-identical to a from-scratch rebuild
///     at the same RNG stream), and hop-ball caches drop only the balls
///     containing a changed out-row — O(touched), never O(graph);
///  3. the retrain policy folds in the drift; when a trigger fires, the
///     overlay compacts to a fresh CSR, TrainDpGnn re-runs through
///     Pipeline::Build/Run on a per-round stream key, and the round's
///     (spec, sigma) is composed into the continual-observation ledger —
///     cumulative epsilon is monotone nondecreasing and never resets;
///  4. the deterministic utility of the currently released seeds is
///     evaluated on the post-batch graph and the row is appended to the
///     utility-vs-time-vs-epsilon history;
///  5. with a checkpoint directory configured, the full stream state
///     commits atomically (batch boundaries are the only commit points),
///     and a killed run resumes bit-identically.
///
/// Not thread-safe: one thread drives the stream (internal stages
/// parallelize per num_threads).
class StreamPipeline {
 public:
  /// Fresh start: takes the initial graph, trains round 0, generates the
  /// resident sketch. With options.resume and an existing snapshot in
  /// options.checkpoint_dir, restores instead: the event log replays onto
  /// `initial` (which must be the same initial graph — fingerprint
  /// checked), and sketch, accountant, policy, model, and history are
  /// restored bit-identically.
  static Result<std::unique_ptr<StreamPipeline>> Build(Graph initial,
                                                       StreamOptions options);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Applies one externally supplied update batch (steps 1-5 above) and
  /// returns its history row.
  Result<StreamStepRecord> ApplyBatch(const UpdateBatch& batch);

  /// Applies the next synthetic batch: MakeSyntheticBatch at the current
  /// batch counter — a pure function of (options.seed, counter), so a
  /// resumed run regenerates the exact forward stream.
  Result<StreamStepRecord> Step();

  /// Read view of the current graph (base + overlay).
  GraphView View() const { return GraphView(*base_, delta_.get()); }

  uint64_t batches_applied() const { return batches_applied_; }
  const RrSketch& sketch() const { return sketch_; }
  const ContinualAccountant& accountant() const { return accountant_; }
  double CumulativeEpsilon() const { return accountant_.CumulativeEpsilon(); }
  const std::vector<StreamStepRecord>& history() const { return history_; }
  const std::vector<NodeId>& seeds() const { return seeds_; }
  const std::vector<double>& seed_scores() const { return seed_scores_; }
  /// Completed training rounds (round 0 included).
  size_t num_retrains() const { return num_retrains_; }
  bool has_model() const { return model_ != nullptr; }

  /// Full checkpointable state at the current batch boundary (what
  /// Save commits; exposed for the bit-identity tests).
  StreamState ExportState() const;

  /// Compacts the current graph and compiles the current model against it
  /// into a graph-owning ModelSnapshot — the unit
  /// Server::SwapGraphAndSnapshot publishes.
  Result<std::shared_ptr<const ModelSnapshot>> MakeServingSnapshot() const;

  /// MakeServingSnapshot + SwapGraphAndSnapshot: hot-swaps graph and
  /// model together on `server`.
  Status PublishTo(Server& server) const;

 private:
  StreamPipeline(Graph initial, StreamOptions options);

  Status Init();
  Status Restore(const StreamState& state);
  /// One retraining round: compact, train through the Pipeline facade,
  /// compose the round into the ledger, re-base the delta.
  Status RetrainRound();
  Status SaveCheckpoint() const;
  /// Installs `compacted` as the delta's new base (old base retired).
  Status Rebase(Graph compacted);

  StreamOptions options_;
  uint64_t fingerprint_ = 0;
  std::unique_ptr<Graph> base_;
  std::unique_ptr<GraphDelta> delta_;
  RrSketch sketch_;
  RetrainPolicy policy_;
  ContinualAccountant accountant_;
  std::unique_ptr<GnnModel> model_;
  std::vector<NodeId> seeds_;
  std::vector<double> seed_scores_;
  std::vector<UpdateEvent> event_log_;
  std::vector<StreamStepRecord> history_;
  uint64_t batches_applied_ = 0;
  size_t num_retrains_ = 0;
  /// Scratch for the utility evaluation; its ball cache participates in
  /// the per-batch invalidation (the O(ball) maintenance contract).
  mutable WorkspacePool workspaces_;
};

}  // namespace privim

#endif  // PRIVIM_STREAM_STREAM_PIPELINE_H_
