#include "stream/stream_pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "ckpt/binary_io.h"
#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "im/diffusion.h"
#include "nn/features.h"
#include "shard/pipeline.h"

namespace privim {

namespace {

/// Stream id of the resident sketch's base key under options.seed
/// (disjoint from the per-batch generator streams, which use the batch
/// index directly, and from the per-round training keys below).
constexpr uint64_t kSketchStreamId = 0xB411;

/// Per-round training key: golden-ratio stride over the base seed, so
/// round r's key is a pure function of (seed, r) a resumed run rederives.
uint64_t RoundSeed(uint64_t base_seed, size_t round) {
  return base_seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(round + 1));
}

/// Rebuilds a model shell from the stream's GNN config and loads `flat`
/// into it — the same shell-restore idiom RunMethod's resume path uses.
Result<std::unique_ptr<GnnModel>> RestoreModel(const GnnConfig& base_config,
                                               std::span<const float> flat) {
  GnnConfig gnn_cfg = base_config;
  gnn_cfg.in_dim = kNodeFeatureDim;
  Rng shell_rng(0x5eed);
  auto model = std::make_unique<GnnModel>(gnn_cfg, shell_rng);
  if (model->params().num_scalars() != flat.size()) {
    return Status::FailedPrecondition(StrFormat(
        "saved model has %zu parameters, this config builds %zu",
        flat.size(), model->params().num_scalars()));
  }
  std::vector<float> params(flat.begin(), flat.end());
  model->params().LoadParams(params);
  return model;
}

}  // namespace

StreamPipeline::StreamPipeline(Graph initial, StreamOptions options)
    : options_(std::move(options)),
      base_(std::make_unique<Graph>(std::move(initial))),
      policy_(options_.retrain),
      accountant_(options_.method.budget.delta) {}

Result<std::unique_ptr<StreamPipeline>> StreamPipeline::Build(
    Graph initial, StreamOptions options) {
  PRIVIM_RETURN_NOT_OK(options.method.Validate());
  if (options.rr_sketch_sets == 0) {
    return Status::InvalidArgument(
        "rr_sketch_sets must be >= 1: incremental sketch maintenance is "
        "the streaming pipeline's core service");
  }
  if (options.utility_steps < 0) {
    return Status::InvalidArgument("utility_steps must be >= 0");
  }
  if (initial.num_nodes() == 0) {
    return Status::InvalidArgument(
        "streaming needs a non-empty initial graph");
  }
  PRIVIM_RETURN_NOT_OK(initial.EnsureInCsr());
  std::unique_ptr<StreamPipeline> p(
      new StreamPipeline(std::move(initial), std::move(options)));
  // Binds checkpoints to (initial graph content, seed, sketch size, sketch
  // horizon): a resume against any other stream is rejected, never
  // silently replayed.
  p->fingerprint_ =
      GraphContentFingerprint(*p->base_, p->options_.seed) ^
      (0x9e3779b97f4a7c15ull *
       static_cast<uint64_t>(p->options_.rr_sketch_sets)) ^
      (0xc2b2ae3d27d4eb4full *
       static_cast<uint64_t>(p->options_.utility_steps + 1));
  p->delta_ = std::make_unique<GraphDelta>(*p->base_);
  p->workspaces_.EnsureSlots(1);
  const bool can_resume =
      p->options_.resume && !p->options_.checkpoint_dir.empty() &&
      FileExists(StreamCheckpointPath(p->options_.checkpoint_dir));
  if (can_resume) {
    PRIVIM_ASSIGN_OR_RETURN(
        StreamState state,
        LoadStreamState(StreamCheckpointPath(p->options_.checkpoint_dir)));
    PRIVIM_RETURN_NOT_OK(p->Restore(state));
  } else {
    PRIVIM_RETURN_NOT_OK(p->Init());
  }
  return p;
}

Status StreamPipeline::Init() {
  Rng sketch_rng = Rng::FromStreamKey(options_.seed, kSketchStreamId);
  PRIVIM_ASSIGN_OR_RETURN(
      sketch_, RrSketch::Generate(View(), options_.rr_sketch_sets,
                                  options_.utility_steps, sketch_rng,
                                  options_.num_threads));
  // Round 0: the stream serves a trained model from the first batch on.
  PRIVIM_RETURN_NOT_OK(RetrainRound());
  if (!options_.checkpoint_dir.empty()) {
    PRIVIM_RETURN_NOT_OK(SaveCheckpoint());
  }
  return Status::OK();
}

Status StreamPipeline::Restore(const StreamState& state) {
  if (state.fingerprint != fingerprint_) {
    return Status::FailedPrecondition(
        "stream checkpoint was written by a different (initial graph, "
        "seed, sketch size, sketch horizon utility_steps) configuration");
  }
  if (state.sketch_sets != options_.rr_sketch_sets) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint holds a %zu-set sketch, options ask for %zu",
        static_cast<size_t>(state.sketch_sets), options_.rr_sketch_sets));
  }
  // Replay the event log onto the initial graph. Skips (already-exists /
  // not-found) resolve identically to the original run — visibility is a
  // pure function of content — so the rebuilt overlay presents exactly
  // the view the killed run saw, regardless of how often it compacted.
  UpdateBatch replay;
  replay.events = state.event_log;
  PRIVIM_ASSIGN_OR_RETURN(const ApplyEffects fx,
                          ApplyUpdateBatch(*delta_, replay));
  (void)fx;
  event_log_ = state.event_log;
  PRIVIM_ASSIGN_OR_RETURN(accountant_,
                          ContinualAccountant::FromState(state.accountant));
  policy_ = RetrainPolicy(
      options_.retrain,
      RetrainPolicy::State{state.arcs_at_train, state.changed_since_train,
                           state.batches_since_train});
  seeds_ = state.seeds;
  seed_scores_ = state.seed_scores;
  history_ = state.history;
  batches_applied_ = state.batches_applied;
  // Round 0 always trains at Build; later rounds are flagged per row.
  num_retrains_ = 1;
  for (const StreamStepRecord& rec : history_) {
    if (rec.retrained != 0) ++num_retrains_;
  }
  if (state.has_model != 0) {
    PRIVIM_ASSIGN_OR_RETURN(
        model_, RestoreModel(options_.method.gnn, state.model_params));
  }
  // The sketch's contents are a pure function of (view, count, base key):
  // regeneration here is bit-identical to the incrementally repaired
  // sketch the killed run held (the Repair == Regenerate contract).
  PRIVIM_ASSIGN_OR_RETURN(
      sketch_, RrSketch::Regenerate(View(), state.sketch_sets,
                                    options_.utility_steps,
                                    state.sketch_stream_base,
                                    options_.num_threads));
  return Status::OK();
}

Result<StreamStepRecord> StreamPipeline::ApplyBatch(
    const UpdateBatch& batch) {
  const auto start_time = std::chrono::steady_clock::now();
  PRIVIM_ASSIGN_OR_RETURN(const ApplyEffects fx,
                          ApplyUpdateBatch(*delta_, batch));
  // The log keeps skipped events too: replay re-skips them identically,
  // and dropping them would make resumed batch boundaries drift.
  event_log_.insert(event_log_.end(), batch.events.begin(),
                    batch.events.end());

  // Incremental sketch repair: only sets with a changed in-row among their
  // expanded nodes are regenerated (a node-count change rebuilds all —
  // Repair decides).
  PRIVIM_ASSIGN_OR_RETURN(
      const size_t repaired,
      sketch_.Repair(View(), fx.changed_in_rows, options_.num_threads));

  // Hop-ball invalidation: drop exactly the balls containing a changed
  // out-row; survivors are retargeted to the post-batch view below.
  size_t dropped = 0;
  const std::vector<NodeId>& changed_out = fx.changed_out_rows;
  for (size_t s = 0; s < workspaces_.size(); ++s) {
    dropped += workspaces_.Acquire(s).ball_cache.Invalidate(
        [&changed_out](uint32_t node) {
          return std::binary_search(changed_out.begin(), changed_out.end(),
                                    node);
        });
  }

  policy_.NoteBatch(fx.changed_arcs);
  bool retrained = false;
  if (policy_.ShouldRetrain()) {
    PRIVIM_RETURN_NOT_OK(RetrainRound());
    retrained = true;
  }

  const GraphView view = View();
  for (size_t s = 0; s < workspaces_.size(); ++s) {
    workspaces_.Acquire(s).ball_cache.Retarget(view.IdentityFingerprint());
  }

  StreamStepRecord rec;
  rec.batch = batches_applied_;
  rec.events_applied = fx.applied_events;
  rec.events_skipped = fx.skipped_events;
  rec.changed_out_rows = fx.changed_out_rows.size();
  rec.changed_in_rows = fx.changed_in_rows.size();
  rec.repaired_sets = repaired;
  rec.invalidated_balls = dropped;
  rec.retrained = retrained ? 1 : 0;
  rec.visible_nodes = view.num_nodes();
  rec.visible_arcs = view.num_edges();
  rec.cumulative_epsilon = accountant_.CumulativeEpsilon();
  rec.utility = static_cast<double>(ExactUnitWeightSpread(
      view, seeds_, options_.utility_steps, workspaces_.Acquire(0)));
  rec.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_time)
                    .count();
  history_.push_back(rec);
  ++batches_applied_;
  if (!options_.checkpoint_dir.empty()) {
    PRIVIM_RETURN_NOT_OK(SaveCheckpoint());
  }
  return rec;
}

Result<StreamStepRecord> StreamPipeline::Step() {
  const UpdateBatch batch = MakeSyntheticBatch(
      View(), batches_applied_, options_.seed, options_.gen);
  return ApplyBatch(batch);
}

Status StreamPipeline::RetrainRound() {
  // The facade consumes its graphs; compaction is deterministic, so the
  // two copies are content-identical.
  PRIVIM_ASSIGN_OR_RETURN(Graph train_graph, delta_->Compact());
  PRIVIM_ASSIGN_OR_RETURN(Graph eval_graph, delta_->Compact());
  PipelineConfig pipeline_config;
  pipeline_config.method = options_.method;
  // The stream checkpoints at batch boundaries; per-round inner snapshots
  // would fight over the directory.
  pipeline_config.method.checkpoint = CheckpointOptions{};
  pipeline_config.method.runtime.num_threads = options_.num_threads;
  pipeline_config.seed = RoundSeed(options_.seed, num_retrains_);
  PRIVIM_ASSIGN_OR_RETURN(
      Pipeline pipeline,
      Pipeline::Build(std::move(train_graph), std::move(eval_graph),
                      std::move(pipeline_config)));
  PRIVIM_ASSIGN_OR_RETURN(PipelineRunResult result, pipeline.Run());
  if (result.model == nullptr) {
    return Status::Internal("serial pipeline run returned no model");
  }
  if (options_.method.method != Method::kNonPrivate &&
      result.run.sigma > 0.0) {
    DpSgdSpec spec;
    spec.max_occurrences = result.run.occurrence_bound;
    spec.container_size = result.run.container_size;
    spec.batch_size =
        std::min(options_.method.train.batch_size,
                 result.run.container_size);
    spec.iterations = options_.method.train.iterations;
    spec.clip_bound = result.run.clip_bound_used;
    PRIVIM_RETURN_NOT_OK(accountant_.AddRound(spec, result.run.sigma)
                             .status());
  }
  seeds_ = std::move(result.seeds);
  seed_scores_ = std::move(result.seed_scores);
  model_ = std::move(result.model);
  ++num_retrains_;
  // Compact the overlay back into the substrate and re-base the delta —
  // the view's content (and therefore the sketch) is unchanged.
  PRIVIM_ASSIGN_OR_RETURN(Graph new_base, delta_->Compact());
  PRIVIM_RETURN_NOT_OK(Rebase(std::move(new_base)));
  policy_.NoteTrained(static_cast<uint64_t>(delta_->num_edges()));
  return Status::OK();
}

Status StreamPipeline::Rebase(Graph compacted) {
  auto fresh = std::make_unique<Graph>(std::move(compacted));
  // Repoint the delta before retiring the old base.
  PRIVIM_RETURN_NOT_OK(delta_->ResetBase(*fresh));
  base_ = std::move(fresh);
  return Status::OK();
}

StreamState StreamPipeline::ExportState() const {
  StreamState state;
  state.fingerprint = fingerprint_;
  state.batches_applied = batches_applied_;
  state.event_log = event_log_;
  state.accountant = accountant_.ToState();
  state.arcs_at_train = policy_.state().arcs_at_train;
  state.changed_since_train = policy_.state().changed_since_train;
  state.batches_since_train = policy_.state().batches_since_train;
  state.seeds = seeds_;
  state.seed_scores = seed_scores_;
  if (model_ != nullptr) {
    state.has_model = 1;
    state.model_params.resize(model_->params().num_scalars());
    model_->params().FlattenParams(state.model_params);
  }
  state.sketch_stream_base = sketch_.stream_base();
  state.sketch_sets = sketch_.num_sets();
  state.history = history_;
  return state;
}

Status StreamPipeline::SaveCheckpoint() const {
  return SaveStreamState(ExportState(),
                         StreamCheckpointPath(options_.checkpoint_dir));
}

Result<std::shared_ptr<const ModelSnapshot>>
StreamPipeline::MakeServingSnapshot() const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition(
        "no trained model to publish; the stream has not completed a "
        "training round");
  }
  PRIVIM_ASSIGN_OR_RETURN(Graph compacted, delta_->Compact());
  auto graph = std::make_shared<const Graph>(std::move(compacted));
  // The snapshot gets its own model instance (the stream keeps training
  // the original): shell + flat-parameter copy.
  std::vector<float> flat(model_->params().num_scalars());
  model_->params().FlattenParams(flat);
  PRIVIM_ASSIGN_OR_RETURN(std::unique_ptr<GnnModel> clone,
                          RestoreModel(options_.method.gnn, flat));
  return ModelSnapshot::FromModel(std::move(clone), std::move(graph));
}

Status StreamPipeline::PublishTo(Server& server) const {
  PRIVIM_ASSIGN_OR_RETURN(std::shared_ptr<const ModelSnapshot> snapshot,
                          MakeServingSnapshot());
  return server.SwapGraphAndSnapshot(std::move(snapshot));
}

}  // namespace privim
