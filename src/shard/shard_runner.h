#ifndef PRIVIM_SHARD_SHARD_RUNNER_H_
#define PRIVIM_SHARD_SHARD_RUNNER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/privim.h"
#include "obs/telemetry.h"
#include "shard/overlap.h"
#include "shard/shard_plan.h"

namespace privim {

/// Configuration of a sharded run, layered on top of the method's own
/// PrivImConfig.
struct ShardRunOptions {
  /// Node-disjoint partitions (>= 1). 1 runs the full partition -> run ->
  /// merge machinery and is bit-identical to the serial RunMethod path.
  size_t num_shards = 1;
  /// Base RNG key: shard s draws its entire stream from
  /// Rng::FromStreamKey(seed, s), so per-shard randomness is a function of
  /// (seed, shard id) alone — independent of scheduling, thread count, and
  /// shard completion order.
  uint64_t seed = 42;
  /// false serializes the stages (overlap.h): the timing baseline of
  /// bench_shard and BM_ShardOverlap.
  bool overlap = true;
};

/// One shard's outcome, kept for diagnostics and the overlap-timing proof.
struct ShardOutcome {
  size_t shard = 0;
  /// The shard-local run result (seeds in shard-LOCAL eval ids).
  PrivImRunResult run;
  /// The shard's seeds translated to original eval-graph ids.
  std::vector<NodeId> seeds;
  /// Wall seconds of the two pipeline stages (extract = Module 1 sampling,
  /// finish = calibrate + train + select + evaluate).
  double extract_seconds = 0.0;
  double finish_seconds = 0.0;
};

struct ShardedRunResult {
  /// Globally merged top-k seed set (original eval-graph ids) and the GNN
  /// logits that ranked them.
  std::vector<NodeId> seeds;
  std::vector<double> seed_scores;
  /// Spread of the merged set on the FULL evaluation graph. At one shard
  /// this is the shard's own spread verbatim (bit-identity); at >= 2 it is
  /// re-evaluated with the configured eval oracle.
  double spread = 0.0;
  /// Parallel composition across node-disjoint shards: max per-shard spend
  /// and entrywise-max ledger (shard_merger.h).
  double epsilon_spent = 0.0;
  std::vector<double> epsilon_ledger;
  /// Cut accounting from the two partitions (arcs dropped entirely).
  uint64_t train_cut_arcs = 0;
  uint64_t train_intra_arcs = 0;
  uint64_t eval_cut_arcs = 0;
  uint64_t eval_intra_arcs = 0;
  /// End-to-end wall seconds of the stage pipeline, and the sum of all
  /// per-shard stage times (what a fully serialized schedule would cost) —
  /// their ratio is the overlap saving BENCH_shard.json reports.
  double wall_seconds = 0.0;
  double stage_seconds = 0.0;
  std::vector<ShardOutcome> shards;
};

/// Shared-nothing sharded pipeline: partitions train and eval graphs with
/// kShardSalt, runs the full PrivIM method per shard (its own
/// graphs, its own Rng stream, its own checkpoint subdirectory
/// `<dir>/shard<i>`), overlapping shard k+1's sampling with shard k's
/// training (overlap.h), then merges per-shard seed sets and privacy
/// ledgers into one global result (shard_merger.h). docs/sharding.md
/// documents the semantics; tests/shard/ pins determinism and the
/// shards=1 serial bit-identity.
class ShardRunner {
 public:
  /// Graphs are borrowed and must outlive Run(). The method config is
  /// copied; its checkpoint.dir (when set) becomes the parent of the
  /// per-shard snapshot subdirectories, and checkpoint.resume resumes
  /// every shard independently from whatever stage its snapshots reached.
  ShardRunner(const Graph& train_graph, const Graph& eval_graph,
              const PrivImConfig& config, const ShardRunOptions& options);

  /// Runs the sharded pipeline. With `telemetry`, per-shard metrics merge
  /// into it in shard-id order (deterministic regardless of completion
  /// order) along with shard.* instruments: "shard.extract" /
  /// "shard.finish" timers, cut-arc counters, and wall/stage gauges.
  Result<ShardedRunResult> Run(RunTelemetry* telemetry = nullptr);

 private:
  const Graph* train_graph_;
  const Graph* eval_graph_;
  PrivImConfig cfg_;
  ShardRunOptions options_;
};

}  // namespace privim

#endif  // PRIVIM_SHARD_SHARD_RUNNER_H_
