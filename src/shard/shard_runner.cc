#include "shard/shard_runner.h"

#include <memory>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/method_execution.h"
#include "runtime/runtime.h"
#include "shard/shard_merger.h"

namespace privim {

namespace {

// Rng stream id of the cross-shard merge evaluation ("merge" in ASCII).
// Far outside any plausible shard index, so the merge oracle's randomness
// never collides with a shard's stream.
constexpr uint64_t kMergeStream = 0x6d65726765ull;

}  // namespace

ShardRunner::ShardRunner(const Graph& train_graph, const Graph& eval_graph,
                         const PrivImConfig& config,
                         const ShardRunOptions& options)
    : train_graph_(&train_graph),
      eval_graph_(&eval_graph),
      cfg_(config),
      options_(options) {}

Result<ShardedRunResult> ShardRunner::Run(RunTelemetry* telemetry) {
  PRIVIM_RETURN_NOT_OK(cfg_.Validate());
  if (options_.num_shards == 0) {
    return Status::InvalidArgument("shard.num_shards must be >= 1, got 0");
  }

  PRIVIM_ASSIGN_OR_RETURN(
      ShardPlan train_plan,
      ShardPlan::Partition(*train_graph_, options_.num_shards));
  PRIVIM_ASSIGN_OR_RETURN(
      ShardPlan eval_plan,
      ShardPlan::Partition(*eval_graph_, options_.num_shards));
  for (size_t s = 0; s < options_.num_shards; ++s) {
    if (eval_plan.nodes(s).size() < cfg_.seed_count) {
      return Status::InvalidArgument(StrFormat(
          "shard %zu holds %zu evaluation nodes, fewer than seed_count "
          "k=%zu — lower shard.num_shards or k",
          s, eval_plan.nodes(s).size(), cfg_.seed_count));
    }
  }

  // Pre-grow the shared pool once, from this single thread: SharedPool(n)
  // joins and rebuilds the pool when it must grow, which must never happen
  // while concurrent shard stages are issuing ParallelFor on it.
  SharedPool(ResolveNumThreads(cfg_.runtime.num_threads));

  struct ShardState {
    PrivImConfig cfg;
    Rng rng{0};
    std::unique_ptr<MethodExecution> exec;
    RunTelemetry telemetry;  // Merged into the caller's in shard order.
    ShardOutcome outcome;
  };
  // unique_ptr elements: RunTelemetry holds a MetricsRegistry, which is
  // neither copyable nor movable.
  std::vector<std::unique_ptr<ShardState>> states;
  states.reserve(options_.num_shards);
  const bool want_telemetry = telemetry != nullptr;
  for (size_t s = 0; s < options_.num_shards; ++s) {
    auto state = std::make_unique<ShardState>();
    state->cfg = cfg_;
    if (cfg_.checkpoint.enabled()) {
      state->cfg.checkpoint.dir =
          cfg_.checkpoint.dir + "/shard" + std::to_string(s);
    }
    // The shard's whole run draws from one key-derived stream: a function
    // of (seed, shard id) alone, never of scheduling.
    state->rng = Rng::FromStreamKey(options_.seed, s);
    state->outcome.shard = s;
    states.push_back(std::move(state));
  }

  WallTimer wall;
  auto stage_a = [&](size_t s) -> Status {
    ShardState& state = *states[s];
    WallTimer timer;
    PRIVIM_ASSIGN_OR_RETURN(
        state.exec,
        MethodExecution::Create(train_plan.graph(s), eval_plan.graph(s),
                                state.cfg, state.rng,
                                want_telemetry ? &state.telemetry : nullptr));
    PRIVIM_RETURN_NOT_OK(state.exec->Extract());
    state.outcome.extract_seconds = timer.ElapsedSeconds();
    return Status::OK();
  };
  auto stage_b = [&](size_t s) -> Status {
    ShardState& state = *states[s];
    WallTimer timer;
    PRIVIM_ASSIGN_OR_RETURN(state.outcome.run, state.exec->Finish());
    state.exec.reset();
    state.outcome.seeds.reserve(state.outcome.run.seeds.size());
    for (NodeId local : state.outcome.run.seeds) {
      state.outcome.seeds.push_back(eval_plan.ToOriginal(s, local));
    }
    state.outcome.finish_seconds = timer.ElapsedSeconds();
    return Status::OK();
  };
  PRIVIM_RETURN_NOT_OK(RunStagePipeline(options_.num_shards,
                                        options_.overlap, stage_a, stage_b));

  ShardedRunResult out;
  out.wall_seconds = wall.ElapsedSeconds();
  for (const auto& state : states) {
    out.stage_seconds +=
        state->outcome.extract_seconds + state->outcome.finish_seconds;
  }

  std::vector<ShardSeedSet> contributions;
  contributions.reserve(options_.num_shards);
  for (const auto& state : states) {
    ShardSeedSet set;
    set.seeds = state->outcome.seeds;
    set.scores = state->outcome.run.seed_scores;
    contributions.push_back(std::move(set));
  }
  PRIVIM_ASSIGN_OR_RETURN(MergedSeedSet merged,
                          MergeSeedSets(contributions, cfg_.seed_count));
  out.seeds = std::move(merged.seeds);
  out.seed_scores = std::move(merged.scores);

  if (options_.num_shards == 1) {
    // Identity: the merged set IS shard 0's set, already scored on the
    // (identical) full eval graph — reuse it verbatim for bit-identity
    // with the serial pipeline.
    out.spread = states[0]->outcome.run.spread;
  } else {
    Rng merge_rng = Rng::FromStreamKey(options_.seed, kMergeStream);
    PRIVIM_ASSIGN_OR_RETURN(
        SpreadOracle oracle,
        MakeEvalOracle(*eval_graph_, cfg_, merge_rng,
                       want_telemetry ? &telemetry->metrics : nullptr));
    out.spread = oracle(out.seeds);
  }

  std::vector<double> spents;
  std::vector<std::vector<double>> ledgers;
  for (const auto& state : states) {
    spents.push_back(state->outcome.run.epsilon_spent);
    ledgers.push_back(state->outcome.run.epsilon_ledger);
  }
  MergedLedger composed = ComposeEpsilonLedgers(spents, ledgers);
  out.epsilon_spent = composed.epsilon_spent;
  out.epsilon_ledger = std::move(composed.ledger);

  out.train_cut_arcs = train_plan.cut_arcs();
  out.train_intra_arcs = train_plan.intra_arcs();
  out.eval_cut_arcs = eval_plan.cut_arcs();
  out.eval_intra_arcs = eval_plan.intra_arcs();

  if (want_telemetry) {
    // Deterministic merge order (shard id), independent of which shard
    // finished first.
    for (const auto& state : states) {
      telemetry->metrics.MergeFrom(state->telemetry.metrics);
      telemetry->train.insert(telemetry->train.end(),
                              state->telemetry.train.begin(),
                              state->telemetry.train.end());
    }
    TimerStat* extract_timer = telemetry->metrics.GetTimer("shard.extract");
    TimerStat* finish_timer = telemetry->metrics.GetTimer("shard.finish");
    for (const auto& state : states) {
      extract_timer->Add(
          1, static_cast<uint64_t>(state->outcome.extract_seconds * 1e9));
      finish_timer->Add(
          1, static_cast<uint64_t>(state->outcome.finish_seconds * 1e9));
    }
    telemetry->metrics.GetCounter("shard.train_cut_arcs")
        ->Add(out.train_cut_arcs);
    telemetry->metrics.GetCounter("shard.eval_cut_arcs")
        ->Add(out.eval_cut_arcs);
    telemetry->metrics.GetGauge("shard.count")
        ->Set(static_cast<double>(options_.num_shards));
    telemetry->metrics.GetGauge("shard.wall_seconds")->Set(out.wall_seconds);
    telemetry->metrics.GetGauge("shard.stage_seconds")
        ->Set(out.stage_seconds);
  }

  out.shards.reserve(states.size());
  for (auto& state : states) {
    out.shards.push_back(std::move(state->outcome));
  }
  return out;
}

}  // namespace privim
