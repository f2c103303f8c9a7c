#include "shard/pipeline.h"

#include <utility>

namespace privim {

Pipeline::Pipeline(Graph train_graph, Graph eval_graph,
                   PipelineConfig config)
    : train_graph_(std::move(train_graph)),
      eval_graph_(std::move(eval_graph)),
      config_(std::move(config)),
      telemetry_(std::make_unique<RunTelemetry>()) {}

Result<Pipeline> Pipeline::Build(Graph train_graph, Graph eval_graph,
                                 PipelineConfig config) {
  PRIVIM_RETURN_NOT_OK(config.method.Validate());
  // Materialize both in-CSRs now, on this one thread. In-degree features
  // (BuildNodeFeatures) require the in-CSR, and EnsureInCsr() is not
  // thread-safe — lazy materialization from concurrent shard tasks was a
  // data race.
  PRIVIM_RETURN_NOT_OK(train_graph.EnsureInCsr());
  PRIVIM_RETURN_NOT_OK(eval_graph.EnsureInCsr());
  return Pipeline(std::move(train_graph), std::move(eval_graph),
                  std::move(config));
}

Result<PipelineRunResult> Pipeline::Run() { return Execute(false); }

Result<PipelineRunResult> Pipeline::Resume() { return Execute(true); }

Result<PipelineRunResult> Pipeline::Execute(bool resume) {
  PrivImConfig method = config_.method;
  if (resume) {
    if (!method.checkpoint.enabled()) {
      return Status::FailedPrecondition(
          "Pipeline::Resume() requires method.checkpoint.dir to be set");
    }
    method.checkpoint.resume = true;
  }
  // Fresh telemetry per execution so repeated Run() calls do not
  // accumulate.
  telemetry_ = std::make_unique<RunTelemetry>();
  RunTelemetry* telemetry =
      config_.collect_telemetry ? telemetry_.get() : nullptr;

  PipelineRunResult out;
  if (config_.shard.num_shards == 0) {
    // Stream 0 — the same stream the sharded runner hands shard 0, which
    // is what makes shards=1 bit-identical to this path.
    Rng rng = Rng::FromStreamKey(config_.seed, 0);
    PRIVIM_ASSIGN_OR_RETURN(
        out.run, RunMethod(train_graph_, eval_graph_, method, rng,
                           &out.model, telemetry));
    out.seeds = out.run.seeds;
    out.seed_scores = out.run.seed_scores;
    out.spread = out.run.spread;
    out.epsilon_spent = out.run.epsilon_spent;
    out.epsilon_ledger = out.run.epsilon_ledger;
    out.sharded = false;
  } else {
    ShardRunOptions shard_options;
    shard_options.num_shards = config_.shard.num_shards;
    shard_options.seed = config_.seed;
    ShardRunner runner(train_graph_, eval_graph_, method, shard_options);
    PRIVIM_ASSIGN_OR_RETURN(out.sharded_run, runner.Run(telemetry));
    out.seeds = out.sharded_run.seeds;
    out.seed_scores = out.sharded_run.seed_scores;
    out.spread = out.sharded_run.spread;
    out.epsilon_spent = out.sharded_run.epsilon_spent;
    out.epsilon_ledger = out.sharded_run.epsilon_ledger;
    out.sharded = true;
  }
  return out;
}

}  // namespace privim
