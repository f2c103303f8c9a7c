#ifndef PRIVIM_SHARD_PIPELINE_H_
#define PRIVIM_SHARD_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/privim.h"
#include "graph/graph.h"
#include "obs/telemetry.h"
#include "shard/shard_runner.h"

namespace privim {

/// How a Pipeline executes the method: serially (one RunMethod over the
/// whole graphs) or sharded (ShardRunner over node-disjoint partitions).
struct PipelineShardOptions {
  /// 0 = serial RunMethod path, no partitioning (the default).
  /// n >= 1 = sharded runner over n partitions; 1 still goes through the
  /// full partition -> run -> merge machinery and is bit-identical to the
  /// serial path (tested).
  size_t num_shards = 0;
};

/// Everything a Pipeline needs beyond its graphs.
struct PipelineConfig {
  /// The method configuration (PrivImConfig.checkpoint governs snapshots;
  /// leave checkpoint.resume false — Pipeline::Resume() sets it).
  PrivImConfig method;
  PipelineShardOptions shard;
  /// Base RNG key. The serial path runs on Rng::FromStreamKey(seed, 0) —
  /// the same stream sharded shard 0 uses, which is what makes
  /// shards=1 and serial bit-identical.
  uint64_t seed = 42;
  /// Collect per-run telemetry into Telemetry() (pure observation:
  /// results are bit-identical either way).
  bool collect_telemetry = false;
};

/// Outcome of Pipeline::Run()/Resume(): a stable headline (seeds, spread,
/// privacy spend) plus the path-specific detail.
struct PipelineRunResult {
  std::vector<NodeId> seeds;
  std::vector<double> seed_scores;
  double spread = 0.0;
  double epsilon_spent = 0.0;
  std::vector<double> epsilon_ledger;
  /// True when the sharded runner executed (shard.num_shards >= 1).
  bool sharded = false;
  /// Serial-path detail (default-constructed when sharded).
  PrivImRunResult run;
  /// Sharded-path detail (default-constructed when serial).
  ShardedRunResult sharded_run;
  /// The trained model — serial path only (the sharded path trains one
  /// model per shard and does not export them).
  std::unique_ptr<GnnModel> model;
};

/// The stable facade every driver constructs the PrivIM pipeline through
/// (docs/api.md, "Stable entry points"): one Build call owning the graphs,
/// one Run/Resume call executing the configured path, one Telemetry()
/// accessor. privim_cli takes the serial path or, with --shards N, the
/// sharded one; no driver reaches around the facade into
/// RunMethod/ShardRunner directly.
///
/// Build eagerly materializes the in-CSR of every owned graph (in-degree
/// features need it, and Graph::EnsureInCsr() is NOT thread-safe — doing
/// it here, single-threaded, is what makes handing the graphs to
/// concurrent shard tasks safe; tests/shard/shard_pipeline_test.cc pins
/// this).
class Pipeline {
 public:
  /// Validates `config.method`, takes ownership of the graphs, and
  /// materializes both in-CSRs. The returned Pipeline is self-contained
  /// and movable.
  static Result<Pipeline> Build(Graph train_graph, Graph eval_graph,
                                PipelineConfig config);

  /// Executes the configured path (serial or sharded) from scratch.
  Result<PipelineRunResult> Run();

  /// Re-executes with checkpoint resume: continues from the snapshots in
  /// method.checkpoint.dir (per-shard subdirectories when sharded), with
  /// bit-identical results to an uninterrupted Run(). FailedPrecondition
  /// when no checkpoint directory is configured.
  Result<PipelineRunResult> Resume();

  /// Telemetry of the most recent Run()/Resume() (empty until one
  /// completes, or when collect_telemetry is off).
  const RunTelemetry& Telemetry() const { return *telemetry_; }

  const PipelineConfig& config() const { return config_; }
  const Graph& train_graph() const { return train_graph_; }
  const Graph& eval_graph() const { return eval_graph_; }

  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

 private:
  Pipeline(Graph train_graph, Graph eval_graph, PipelineConfig config);

  Result<PipelineRunResult> Execute(bool resume);

  Graph train_graph_;
  Graph eval_graph_;
  PipelineConfig config_;
  // unique_ptr: MetricsRegistry is not movable, Pipeline is.
  std::unique_ptr<RunTelemetry> telemetry_;
};

}  // namespace privim

#endif  // PRIVIM_SHARD_PIPELINE_H_
