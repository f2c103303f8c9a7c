#include "core/privim.h"

#include "core/indicator.h"
#include "core/method_execution.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ckpt/binary_io.h"
#include "ckpt/failpoint.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "dp/rdp_accountant.h"
#include "dp/sensitivity.h"
#include "graph/algorithms.h"
#include "im/diffusion.h"
#include "im/seed_selection.h"
#include "nn/features.h"

namespace privim {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kPrivIm:
      return "PrivIM";
    case Method::kPrivImScs:
      return "PrivIM+SCS";
    case Method::kPrivImStar:
      return "PrivIM*";
    case Method::kEgn:
      return "EGN";
    case Method::kHp:
      return "HP";
    case Method::kHpGrat:
      return "HP-GRAT";
    case Method::kNonPrivate:
      return "Non-Private";
  }
  return "?";
}

Result<Method> ParseMethod(const std::string& name) {
  for (Method m :
       {Method::kPrivIm, Method::kPrivImScs, Method::kPrivImStar,
        Method::kEgn, Method::kHp, Method::kHpGrat, Method::kNonPrivate}) {
    if (MethodName(m) == name) return m;
  }
  return Status::NotFound(StrFormat("unknown method '%s'", name.c_str()));
}

std::string EvalDiffusionName(PrivImConfig::EvalDiffusion diffusion) {
  switch (diffusion) {
    case PrivImConfig::EvalDiffusion::kExactIc:
      return "exact";
    case PrivImConfig::EvalDiffusion::kMonteCarloIc:
      return "mc";
    case PrivImConfig::EvalDiffusion::kLt:
      return "lt";
    case PrivImConfig::EvalDiffusion::kSis:
      return "sis";
  }
  return "?";
}

Result<PrivImConfig::EvalDiffusion> ParseEvalDiffusion(
    const std::string& name) {
  for (PrivImConfig::EvalDiffusion d :
       {PrivImConfig::EvalDiffusion::kExactIc,
        PrivImConfig::EvalDiffusion::kMonteCarloIc,
        PrivImConfig::EvalDiffusion::kLt,
        PrivImConfig::EvalDiffusion::kSis}) {
    if (EvalDiffusionName(d) == name) return d;
  }
  return Status::NotFound(
      StrFormat("unknown eval diffusion '%s' (want exact|mc|lt|sis)",
                name.c_str()));
}

namespace {

/// Validation helpers: every check reports the offending field by its
/// config path so a CLI user can map the message straight to a flag.
Status CheckPositive(size_t v, const char* path) {
  if (v == 0) {
    return Status::InvalidArgument(
        StrFormat("%s must be >= 1, got 0", path));
  }
  return Status::OK();
}

Status CheckProbability(double v, const char* path) {
  if (!(v > 0.0 && v <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("%s must be in (0, 1], got %g", path, v));
  }
  return Status::OK();
}

}  // namespace

Status PrivImConfig::Validate() const {
  // Privacy budget (ignored by the non-private reference).
  if (method != Method::kNonPrivate) {
    if (!(budget.epsilon > 0.0)) {
      return Status::InvalidArgument(StrFormat(
          "budget.epsilon must be > 0, got %g", budget.epsilon));
    }
    if (budget.epsilon < kNonPrivateEpsilon &&
        !(budget.delta > 0.0 && budget.delta < 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "budget.delta must be in (0, 1), got %g", budget.delta));
    }
  }

  // Naive pipeline (theta-projection + RWR).
  PRIVIM_RETURN_NOT_OK(CheckPositive(theta, "theta"));
  PRIVIM_RETURN_NOT_OK(
      CheckProbability(rwr.sampling_rate, "rwr.sampling_rate"));
  PRIVIM_RETURN_NOT_OK(CheckProbability(rwr.restart_prob, "rwr.restart_prob"));
  PRIVIM_RETURN_NOT_OK(CheckPositive(rwr.walk_length, "rwr.walk_length"));
  if (rwr.hop_bound < 1) {
    return Status::InvalidArgument(
        StrFormat("rwr.hop_bound must be >= 1, got %d", rwr.hop_bound));
  }
  if (rwr.subgraph_size < 2) {
    return Status::InvalidArgument(StrFormat(
        "rwr.subgraph_size must be >= 2, got %zu", rwr.subgraph_size));
  }

  // Dual-stage pipeline.
  PRIVIM_RETURN_NOT_OK(
      CheckProbability(freq.sampling_rate, "freq.sampling_rate"));
  PRIVIM_RETURN_NOT_OK(
      CheckProbability(freq.restart_prob, "freq.restart_prob"));
  PRIVIM_RETURN_NOT_OK(CheckPositive(freq.walk_length, "freq.walk_length"));
  if (freq.subgraph_size < 2) {
    return Status::InvalidArgument(StrFormat(
        "freq.subgraph_size must be >= 2, got %zu", freq.subgraph_size));
  }
  PRIVIM_RETURN_NOT_OK(
      CheckPositive(freq.frequency_threshold, "freq.frequency_threshold"));
  PRIVIM_RETURN_NOT_OK(
      CheckPositive(freq.shrink_factor, "freq.shrink_factor"));
  if (freq.decay < 0.0) {
    return Status::InvalidArgument(
        StrFormat("freq.decay must be >= 0, got %g", freq.decay));
  }

  // EGN / HP samplers.
  PRIVIM_RETURN_NOT_OK(
      CheckPositive(egn_subgraph_count, "egn_subgraph_count"));
  PRIVIM_RETURN_NOT_OK(
      CheckProbability(ego.sampling_rate, "ego.sampling_rate"));
  PRIVIM_RETURN_NOT_OK(CheckPositive(ego.fanout, "ego.fanout"));
  if (ego.hops < 1) {
    return Status::InvalidArgument(
        StrFormat("ego.hops must be >= 1, got %d", ego.hops));
  }
  if (ego.max_nodes < 2) {
    return Status::InvalidArgument(
        StrFormat("ego.max_nodes must be >= 2, got %zu", ego.max_nodes));
  }

  // Backbone.
  PRIVIM_RETURN_NOT_OK(CheckPositive(gnn.hidden_dim, "gnn.hidden_dim"));
  PRIVIM_RETURN_NOT_OK(CheckPositive(gnn.num_layers, "gnn.num_layers"));

  // Training.
  PRIVIM_RETURN_NOT_OK(CheckPositive(train.batch_size, "train.batch_size"));
  PRIVIM_RETURN_NOT_OK(CheckPositive(train.iterations, "train.iterations"));
  if (!(train.learning_rate > 0.0f)) {
    return Status::InvalidArgument(StrFormat(
        "train.learning_rate must be > 0, got %g",
        static_cast<double>(train.learning_rate)));
  }
  if (train.clip_bound < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "train.clip_bound must be >= 0, got %g", train.clip_bound));
  }
  if (train.noise_stddev < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "train.noise_stddev must be >= 0, got %g", train.noise_stddev));
  }
  if (!(auto_clip_scale > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "auto_clip_scale must be > 0, got %g", auto_clip_scale));
  }

  // Evaluation.
  PRIVIM_RETURN_NOT_OK(CheckPositive(seed_count, "seed_count"));
  if (eval_steps < 1) {
    return Status::InvalidArgument(
        StrFormat("eval_steps must be >= 1, got %d", eval_steps));
  }
  PRIVIM_RETURN_NOT_OK(CheckPositive(eval_trials, "eval_trials"));
  PRIVIM_RETURN_NOT_OK(CheckProbability(sis_recovery, "sis_recovery"));

  // Checkpointing.
  if (checkpoint.resume && !checkpoint.enabled()) {
    return Status::InvalidArgument(
        "checkpoint.resume requires checkpoint.dir to be set");
  }
  if (checkpoint.enabled()) {
    PRIVIM_RETURN_NOT_OK(
        CheckPositive(checkpoint.train_every, "checkpoint.train_every"));
  }
  return Status::OK();
}

PrivImConfig MakeDefaultConfig(Method method, double epsilon,
                               size_t train_nodes) {
  PrivImConfig cfg;
  cfg.method = method;
  cfg.budget.epsilon = epsilon;
  // Paper: delta < 1/|V_train|.
  cfg.budget.delta = 0.5 / std::max<double>(1.0, static_cast<double>(
                                                     train_nodes));
  // q = 256/|V_train| (Section V-A), clamped to a valid probability.
  const double q =
      std::min(1.0, 256.0 / std::max<double>(1.0, static_cast<double>(
                                                      train_nodes)));
  cfg.rwr.sampling_rate = q;
  cfg.freq.sampling_rate = q;
  cfg.ego.sampling_rate = q;
  cfg.theta = 10;
  cfg.rwr.walk_length = 200;
  cfg.freq.walk_length = 200;
  cfg.rwr.restart_prob = 0.3;
  cfg.freq.restart_prob = 0.3;
  cfg.rwr.hop_bound = 3;
  cfg.rwr.subgraph_size = 40;
  cfg.freq.subgraph_size = 40;
  cfg.freq.frequency_threshold = 6;
  cfg.freq.shrink_factor = 2;
  // HP's ego sampling with the paper's theta = 10 over 2 hops. Under the
  // shared Theorem-3 accountant this yields N_g = 111 versus PrivIM*'s
  // N_g = M = 6, so HP pays ~18x the noise — the quantitative form of the
  // paper's argument that node-level schemes cannot control IM's broader
  // dependencies (see EXPERIMENTS.md for the observed effect).
  cfg.ego.fanout = 10;
  cfg.ego.hops = 2;
  cfg.ego.max_nodes = 40;

  cfg.gnn.type = GnnType::kGrat;
  if (method == Method::kEgn || method == Method::kHp) {
    cfg.gnn.type = GnnType::kGcn;
  }
  cfg.gnn.in_dim = kNodeFeatureDim;
  cfg.gnn.hidden_dim = 32;
  cfg.gnn.num_layers = 3;

  cfg.train.batch_size = 16;
  cfg.train.iterations = 60;
  cfg.train.learning_rate = 0.05f;
  // Clip at the typical per-subgraph gradient norm (~0.1 for this loss and
  // architecture); a looser bound would only inflate Delta_g = C * N_g and
  // with it the injected noise, without changing the clean gradients.
  cfg.train.clip_bound = 0.1;
  cfg.train.loss.diffusion_steps = 1;
  cfg.train.loss.lambda = 0.25f;

  cfg.seed_count = 50;
  cfg.eval_steps = 1;

  if (method == Method::kNonPrivate) {
    cfg.budget.epsilon = kNonPrivateEpsilon;
    // The non-private reference should be the strongest achievable model:
    // Adam handles the conditioning differences across datasets that SGD's
    // single learning rate cannot.
    cfg.train.optimizer = OptimizerKind::kAdam;
    cfg.train.learning_rate = 0.04f;
    cfg.train.iterations = 100;
  }
  return cfg;
}

void AutoTuneSamplingParams(size_t dataset_nodes, PrivImConfig& config) {
  std::vector<double> n_grid, m_grid;
  for (double n = 10; n <= 80; n += 10) n_grid.push_back(n);
  for (double m = 2; m <= 12; m += 2) m_grid.push_back(m);
  const IndicatorPeak peak = FindIndicatorPeak(
      n_grid, m_grid, std::max<size_t>(dataset_nodes, 3),
      IndicatorParams());
  config.freq.subgraph_size = static_cast<size_t>(peak.n);
  config.freq.frequency_threshold = static_cast<size_t>(peak.m);
  config.rwr.subgraph_size = static_cast<size_t>(peak.n);
}

namespace {

bool IsNonPrivate(const PrivImConfig& cfg) {
  return cfg.method == Method::kNonPrivate ||
         cfg.budget.epsilon >= kNonPrivateEpsilon;
}

uint64_t MixU64(uint64_t h, uint64_t v) {
  uint8_t bytes[8];
  std::memcpy(bytes, &v, sizeof(bytes));
  return Fnv1a(std::span<const uint8_t>(bytes, sizeof(bytes)), h);
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixU64(h, bits);
}

/// Binds a checkpoint to its inputs: the content of both graphs plus every
/// config field that changes what the pipeline computes. Resuming against
/// a different dataset or configuration is rejected up front instead of
/// silently producing a chimera of two runs. (The caller's RNG seed is not
/// part of the config — a resumed run always continues the *original*
/// run's stream, which the snapshot carries.)
uint64_t RunFingerprint(const Graph& train_graph, const Graph& eval_graph,
                        const PrivImConfig& cfg) {
  uint64_t h = GraphContentFingerprint(train_graph);
  h = MixU64(h, GraphContentFingerprint(eval_graph, h));
  h = MixU64(h, static_cast<uint64_t>(cfg.method));
  h = MixDouble(h, cfg.budget.epsilon);
  h = MixDouble(h, cfg.budget.delta);
  h = MixU64(h, cfg.theta);
  h = MixU64(h, cfg.rwr.subgraph_size);
  h = MixDouble(h, cfg.rwr.restart_prob);
  h = MixDouble(h, cfg.rwr.sampling_rate);
  h = MixU64(h, cfg.rwr.walk_length);
  h = MixU64(h, static_cast<uint64_t>(cfg.rwr.hop_bound));
  h = MixU64(h, cfg.freq.subgraph_size);
  h = MixDouble(h, cfg.freq.restart_prob);
  h = MixDouble(h, cfg.freq.decay);
  h = MixDouble(h, cfg.freq.sampling_rate);
  h = MixU64(h, cfg.freq.shrink_factor);
  h = MixU64(h, cfg.freq.walk_length);
  h = MixU64(h, cfg.freq.frequency_threshold);
  h = MixU64(h, cfg.egn_subgraph_count);
  h = MixDouble(h, cfg.ego.sampling_rate);
  h = MixU64(h, cfg.ego.fanout);
  h = MixU64(h, static_cast<uint64_t>(cfg.ego.hops));
  h = MixU64(h, cfg.ego.max_nodes);
  h = MixU64(h, static_cast<uint64_t>(cfg.gnn.type));
  h = MixU64(h, cfg.gnn.hidden_dim);
  h = MixU64(h, cfg.gnn.num_layers);
  h = MixU64(h, cfg.train.batch_size);
  h = MixU64(h, cfg.train.iterations);
  h = MixDouble(h, static_cast<double>(cfg.train.learning_rate));
  h = MixU64(h, static_cast<uint64_t>(cfg.train.optimizer));
  h = MixDouble(h, cfg.train.clip_bound);
  h = MixDouble(h, cfg.train.noise_stddev);
  h = MixU64(h, static_cast<uint64_t>(cfg.train.noise_kind));
  h = MixU64(h, cfg.train.tail_averaging ? 1u : 0u);
  h = MixU64(h, static_cast<uint64_t>(cfg.train.loss.diffusion_steps));
  h = MixDouble(h, static_cast<double>(cfg.train.loss.lambda));
  h = MixU64(h, cfg.auto_clip ? 1u : 0u);
  h = MixDouble(h, cfg.auto_clip_scale);
  h = MixU64(h, cfg.seed_count);
  h = MixU64(h, static_cast<uint64_t>(cfg.eval_steps));
  h = MixU64(h, static_cast<uint64_t>(cfg.eval_diffusion));
  h = MixU64(h, cfg.eval_trials);
  h = MixDouble(h, cfg.sis_recovery);
  return h;
}

/// Extracts the subgraph container per the configured method and reports
/// the a-priori occurrence bound the accountant must use. `metrics` (may be
/// null) receives the sampler walk counters.
Result<SubgraphContainer> ExtractContainer(const Graph& train_graph,
                                           const PrivImConfig& cfg, Rng& rng,
                                           PrivImRunResult* result,
                                           MetricsRegistry* metrics) {
  switch (cfg.method) {
    case Method::kPrivIm: {
      // Algorithm 1: theta-projection, then RWR on the bounded graph.
      PRIVIM_ASSIGN_OR_RETURN(
          Graph bounded, ThetaBoundedProjection(train_graph, cfg.theta, rng));
      RwrConfig rwr = cfg.rwr;
      rwr.num_threads = cfg.runtime.num_threads;
      rwr.metrics = metrics;
      RwrSampler sampler(rwr);
      PRIVIM_ASSIGN_OR_RETURN(SubgraphContainer container,
                              sampler.Extract(bounded, rng));
      // Lemma 1 bound, clamped by the container size (a node cannot occur
      // more often than there are subgraphs).
      result->occurrence_bound = std::min(
          OccurrenceBoundNaive(cfg.theta, cfg.gnn.num_layers),
          container.size());
      result->stage1_count = container.size();
      return container;
    }
    case Method::kPrivImScs:
    case Method::kPrivImStar:
    case Method::kNonPrivate: {
      FreqSamplingConfig freq = cfg.freq;
      freq.boundary_stage = cfg.method != Method::kPrivImScs;
      freq.num_threads = cfg.runtime.num_threads;
      freq.metrics = metrics;
      FreqSampler sampler(freq);
      PRIVIM_ASSIGN_OR_RETURN(DualStageResult dual,
                              sampler.Extract(train_graph, rng));
      result->occurrence_bound =
          std::min(freq.frequency_threshold, dual.container.size());
      result->stage1_count = dual.stage1_count;
      result->stage2_count = dual.stage2_count;
      return std::move(dual.container);
    }
    case Method::kEgn: {
      const size_t n = std::min<size_t>(cfg.freq.subgraph_size,
                                        train_graph.num_nodes());
      PRIVIM_ASSIGN_OR_RETURN(
          SubgraphContainer container,
          EgnRandomSample(train_graph, cfg.egn_subgraph_count,
                          std::max<size_t>(2, n), rng));
      // Uniform random subsets admit no better a-priori bound than the
      // container size itself.
      result->occurrence_bound = container.size();
      result->stage1_count = container.size();
      return container;
    }
    case Method::kHp:
    case Method::kHpGrat: {
      // HP bounds the maximum in-degree theta before ego-sampling (Xiang
      // et al.); the projection is what makes the geometric occurrence
      // bound a-priori valid (at most sum theta^i roots can reach a node
      // within `hops`).
      PRIVIM_ASSIGN_OR_RETURN(
          Graph bounded,
          ThetaBoundedProjection(train_graph, cfg.ego.fanout, rng));
      PRIVIM_ASSIGN_OR_RETURN(SubgraphContainer container,
                              EgoSample(bounded, cfg.ego, rng));
      result->occurrence_bound =
          EgoOccurrenceBound(cfg.ego, container.size());
      result->stage1_count = container.size();
      return container;
    }
  }
  return Status::InvalidArgument("unknown method");
}

}  // namespace

Result<std::unique_ptr<MethodExecution>> MethodExecution::Create(
    const Graph& train_graph, const Graph& eval_graph,
    const PrivImConfig& cfg, Rng& rng, RunTelemetry* telemetry) {
  PRIVIM_RETURN_NOT_OK(cfg.Validate());
  if (eval_graph.num_nodes() < cfg.seed_count) {
    return Status::InvalidArgument(
        StrFormat("evaluation graph has %zu nodes < k=%zu",
                  eval_graph.num_nodes(), cfg.seed_count));
  }
  std::unique_ptr<MethodExecution> exec(new MethodExecution());
  exec->train_graph_ = &train_graph;
  exec->eval_graph_ = &eval_graph;
  exec->cfg_ = cfg;
  exec->rng_ = &rng;
  exec->telemetry_ = telemetry;
  exec->metrics_ = telemetry != nullptr ? &telemetry->metrics : nullptr;
  // Runtime-pool counters are process-wide and monotonic; scope them to
  // this run by differencing a before/after snapshot.
  exec->runtime_before_ = GetRuntimeStats();

  // ---- Checkpoint bootstrap. ----
  // `ck_` accumulates the run's durable state; on a resume it starts from
  // the last committed stage and the stages it covers are skipped below.
  // The caller's Rng is restored from the snapshot, so the stream position
  // at the point where execution rejoins is exactly what the uninterrupted
  // run had there.
  exec->ckpt_on_ = cfg.checkpoint.enabled();
  exec->pipeline_path_ = exec->ckpt_on_
                             ? PipelineCheckpointPath(cfg.checkpoint.dir)
                             : std::string();
  if (exec->ckpt_on_) {
    exec->ck_.fingerprint = RunFingerprint(train_graph, eval_graph, cfg);
  }
  if (exec->ckpt_on_ && cfg.checkpoint.resume &&
      FileExists(exec->pipeline_path_)) {
    const uint64_t expected = exec->ck_.fingerprint;
    PRIVIM_ASSIGN_OR_RETURN(
        exec->ck_, LoadPipelineState(exec->pipeline_path_, exec->metrics_));
    if (exec->ck_.fingerprint != expected) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint '%s' was written by a different run (fingerprint "
          "%llx, this run is %llx): refusing to resume",
          exec->pipeline_path_.c_str(),
          static_cast<unsigned long long>(exec->ck_.fingerprint),
          static_cast<unsigned long long>(expected)));
    }
    exec->resumed_stage_ = exec->ck_.stage;
    rng.RestoreState(exec->ck_.rng);
  }
  return exec;
}

Status MethodExecution::Extract() {
  if (extracted_) {
    return Status::FailedPrecondition(
        "MethodExecution::Extract called twice");
  }
  extracted_ = true;
  const Graph& train_graph = *train_graph_;
  const PrivImConfig& cfg = cfg_;
  Rng& rng = *rng_;

  // ---- Module 1: subgraph extraction. ----
  if (resumed_stage_ >= PipelineStage::kExtracted) {
    // Copy, not move: `ck_` must keep the container so the kCalibrated
    // snapshot (written in Finish on a resumed run) still carries it for
    // the next resume. The uninterrupted path holds both copies too.
    container_ = ck_.container;
    result_.occurrence_bound = ck_.occurrence_bound;
    result_.container_size = ck_.container_size;
    result_.stage1_count = ck_.stage1_count;
    result_.stage2_count = ck_.stage2_count;
    result_.audited_max_occurrence = ck_.audited_max_occurrence;
    result_.preprocessing_seconds = ck_.preprocessing_seconds;
  } else {
    WallTimer preprocess_timer;
    PRIVIM_ASSIGN_OR_RETURN(
        container_,
        ExtractContainer(train_graph, cfg, rng, &result_, metrics_));
    if (container_.empty()) {
      return Status::FailedPrecondition(
          "sampling produced no subgraphs (graph too small or sampling rate "
          "too low)");
    }
    result_.container_size = container_.size();
    result_.preprocessing_seconds = preprocess_timer.ElapsedSeconds();

    // Audit: the realized occurrences must respect the accountant's bound
    // for the frequency-capped pipelines. (EGN's bound is m by
    // construction.)
    PRIVIM_ASSIGN_OR_RETURN(result_.audited_max_occurrence,
                            container_.MaxOccurrence(train_graph.num_nodes()));
    if (result_.audited_max_occurrence > result_.occurrence_bound) {
      return Status::Internal(StrFormat(
          "occurrence audit failed: observed %zu > bound %zu",
          result_.audited_max_occurrence, result_.occurrence_bound));
    }
    if (ckpt_on_) {
      ck_.stage = PipelineStage::kExtracted;
      ck_.rng = rng.SaveState();
      ck_.container = container_;
      ck_.occurrence_bound = result_.occurrence_bound;
      ck_.container_size = result_.container_size;
      ck_.stage1_count = result_.stage1_count;
      ck_.stage2_count = result_.stage2_count;
      ck_.audited_max_occurrence = result_.audited_max_occurrence;
      ck_.preprocessing_seconds = result_.preprocessing_seconds;
      PRIVIM_RETURN_NOT_OK(SavePipelineState(ck_, pipeline_path_, metrics_));
      PRIVIM_RETURN_NOT_OK(Failpoint("privim.ckpt.after_extract"));
    }
  }
  return Status::OK();
}

Result<PrivImRunResult> MethodExecution::Finish(
    std::unique_ptr<GnnModel>* model_out) {
  if (!extracted_) {
    return Status::FailedPrecondition(
        "MethodExecution::Finish called before Extract");
  }
  if (finished_) {
    return Status::FailedPrecondition(
        "MethodExecution::Finish called twice");
  }
  finished_ = true;
  const Graph& eval_graph = *eval_graph_;
  const PrivImConfig& cfg = cfg_;
  Rng& rng = *rng_;
  RunTelemetry* telemetry = telemetry_;
  MetricsRegistry* metrics = metrics_;
  PrivImRunResult& result = result_;
  SubgraphContainer& container = container_;
  const PipelineStage resumed_stage = resumed_stage_;
  const bool ckpt_on = ckpt_on_;
  const std::string& pipeline_path = pipeline_path_;
  PipelineState& ck = ck_;

  // ---- Module 2: privacy accounting. ----
  TrainConfig train_cfg = cfg.train;
  train_cfg.num_threads = cfg.runtime.num_threads;
  train_cfg.telemetry = telemetry;
  // Cumulative epsilon after each iteration; stays empty on non-private
  // runs (their records keep a NaN epsilon).
  std::vector<double> epsilon_ledger;
  const bool non_private = IsNonPrivate(cfg);
  if (resumed_stage >= PipelineStage::kCalibrated) {
    // Restore the calibration outcome verbatim — including the epsilon
    // ledger for iterations this process will never re-run, which is what
    // keeps the resumed run's privacy report identical to the
    // uninterrupted one.
    train_cfg.clip_bound = ck.clip_bound;
    train_cfg.learning_rate = ck.learning_rate;
    train_cfg.noise_stddev = ck.noise_stddev;
    train_cfg.noise_kind = static_cast<NoiseKind>(ck.noise_kind);
    train_cfg.batch_size = ck.batch_size;
    result.sigma = ck.accountant.sigma;
    result.epsilon_spent = ck.accountant.epsilon_spent;
    epsilon_ledger = ck.accountant.ledger;
  } else {
    // Sparse graphs can yield fewer subgraphs than the configured batch
    // size; the accountant requires B <= m, so clamp (this only makes the
    // subsampling, and hence the guarantee, more conservative).
    train_cfg.batch_size = std::min(train_cfg.batch_size, container.size());
    if (non_private) {
      train_cfg.noise_kind = NoiseKind::kNone;
      train_cfg.noise_stddev = 0.0;
      train_cfg.clip_bound = 0.0;  // epsilon = inf: no clipping either.
      result.sigma = 0.0;
      result.epsilon_spent = kNonPrivateEpsilon;
    } else {
      if (cfg.auto_clip) {
        // Dry-run a throwaway model for a few noiseless iterations to learn
        // the per-subgraph gradient scale, and clip there.
        GnnConfig probe_cfg = cfg.gnn;
        probe_cfg.in_dim = kNodeFeatureDim;
        Rng probe_rng = rng.Fork();
        GnnModel probe(probe_cfg, probe_rng);
        TrainConfig dry = cfg.train;
        dry.num_threads = cfg.runtime.num_threads;
        // The dry run is a calibration probe, not the released training run;
        // its iterations must not pollute the telemetry record.
        dry.telemetry = nullptr;
        dry.batch_size = std::min<size_t>(train_cfg.batch_size, 8);
        dry.iterations = std::max<size_t>(8, cfg.train.iterations / 4);
        dry.noise_kind = NoiseKind::kNone;
        dry.noise_stddev = 0.0;
        dry.tail_averaging = false;
        PRIVIM_ASSIGN_OR_RETURN(TrainStats dry_stats,
                                TrainDpGnn(probe, container, dry, probe_rng));
        // Gradient norms shrink after warmup; clip at the post-warmup scale
        // (median over the second half of the dry run).
        const size_t half = dry_stats.grad_norms.size() / 2;
        std::vector<double> tail(dry_stats.grad_norms.begin() + half,
                                 dry_stats.grad_norms.end());
        std::sort(tail.begin(), tail.end());
        const double median =
            tail.empty() ? dry_stats.mean_grad_norm : tail[tail.size() / 2];
        if (median > 0.0) {
          train_cfg.clip_bound = cfg.auto_clip_scale * median;
          // Clipped SGD moves ~lr*C per step; rescale the learning rate so
          // the per-step movement matches the configured lr at C = 0.1
          // (keeping training speed independent of the gradient scale).
          train_cfg.learning_rate = std::min(
              2.0f, cfg.train.learning_rate *
                        static_cast<float>(0.1 / train_cfg.clip_bound));
        }
      }
      DpSgdSpec spec;
      spec.max_occurrences = std::max<size_t>(1, result.occurrence_bound);
      spec.container_size = container.size();
      spec.batch_size = train_cfg.batch_size;
      spec.iterations = train_cfg.iterations;
      spec.clip_bound = train_cfg.clip_bound;
      PRIVIM_ASSIGN_OR_RETURN(RdpAccountant accountant,
                              RdpAccountant::Create(spec));
      PRIVIM_ASSIGN_OR_RETURN(double sigma,
                              accountant.CalibrateSigma(cfg.budget));
      result.sigma = sigma;
      PRIVIM_ASSIGN_OR_RETURN(result.epsilon_spent,
                              accountant.Epsilon(sigma, cfg.budget.delta));
      // Always computed on private runs (it is cheap accountant math): the
      // result carries it so the sharded runner can compose per-shard
      // ledgers at merge time (src/shard/shard_merger.h).
      PRIVIM_ASSIGN_OR_RETURN(
          epsilon_ledger, accountant.EpsilonLedger(sigma, cfg.budget.delta));
      const double delta_g =
          NodeSensitivity(train_cfg.clip_bound, spec.max_occurrences);
      train_cfg.noise_stddev = sigma * delta_g;
      train_cfg.noise_kind =
          (cfg.method == Method::kHp || cfg.method == Method::kHpGrat)
              ? NoiseKind::kSml
              : NoiseKind::kGaussian;
      if (ckpt_on) ck.accountant.spec = spec;
    }
    // Stage-boundary snapshot, taken BEFORE the model-init fork below: the
    // resumed process replays that fork from the restored stream, so the
    // initial parameters come out identical.
    if (ckpt_on) {
      ck.stage = PipelineStage::kCalibrated;
      ck.rng = rng.SaveState();
      ck.accountant.sigma = result.sigma;
      ck.accountant.delta = cfg.budget.delta;
      ck.accountant.epsilon_spent = result.epsilon_spent;
      ck.accountant.ledger = epsilon_ledger;
      ck.clip_bound = train_cfg.clip_bound;
      ck.learning_rate = train_cfg.learning_rate;
      ck.noise_stddev = train_cfg.noise_stddev;
      ck.noise_kind = static_cast<uint32_t>(train_cfg.noise_kind);
      ck.batch_size = train_cfg.batch_size;
      PRIVIM_RETURN_NOT_OK(SavePipelineState(ck, pipeline_path, metrics));
      PRIVIM_RETURN_NOT_OK(Failpoint("privim.ckpt.after_calibrate"));
    }
  }
  result.noise_stddev = train_cfg.noise_stddev;
  result.clip_bound_used = train_cfg.clip_bound;
  result.epsilon_ledger = epsilon_ledger;

  // ---- Module 3: DP-GNN training. ----
  GnnConfig gnn_cfg = cfg.gnn;
  gnn_cfg.in_dim = kNodeFeatureDim;
  std::unique_ptr<GnnModel> model_ptr;
  if (resumed_stage >= PipelineStage::kTrained) {
    // Training already completed in a previous process: rebuild the model
    // shell with a throwaway RNG (the init randomness is overwritten) and
    // load the trained parameters. The caller's Rng was restored to its
    // post-training position above, so evaluation consumes the stream
    // exactly as the uninterrupted run did.
    Rng shell_rng(0x5eed);
    model_ptr = std::make_unique<GnnModel>(gnn_cfg, shell_rng);
    if (model_ptr->params().num_scalars() != ck.model_params.size()) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint model has %zu parameters, this config builds %zu",
          ck.model_params.size(), model_ptr->params().num_scalars()));
    }
    model_ptr->params().LoadParams(ck.model_params);
    result.per_epoch_seconds = ck.per_epoch_seconds;
    result.final_loss = ck.final_loss;
  } else {
    Rng init_rng = rng.Fork();
    model_ptr = std::make_unique<GnnModel>(gnn_cfg, init_rng);
    // Mid-training resume: a trainer snapshot is only meaningful while the
    // pipeline checkpoint sits at the calibration boundary (a stale
    // train.ckpt from an older run is ignored otherwise).
    TrainerState trainer_state;
    if (ckpt_on) {
      train_cfg.checkpoint_path = TrainerCheckpointPath(cfg.checkpoint.dir);
      train_cfg.checkpoint_every = cfg.checkpoint.train_every;
      if (cfg.checkpoint.resume &&
          resumed_stage == PipelineStage::kCalibrated &&
          FileExists(train_cfg.checkpoint_path)) {
        PRIVIM_ASSIGN_OR_RETURN(
            trainer_state,
            LoadTrainerState(train_cfg.checkpoint_path, metrics));
        train_cfg.resume = &trainer_state;
      }
    }
    const size_t train_records_before =
        telemetry != nullptr ? telemetry->train.size() : 0;
    PRIVIM_ASSIGN_OR_RETURN(
        TrainStats stats, TrainDpGnn(*model_ptr, container, train_cfg, rng));
    if (telemetry != nullptr && !epsilon_ledger.empty()) {
      // Zip the accountant's ledger into the records this run appended:
      // record for iteration t gets the epsilon spent after t+1 iterations.
      for (size_t i = train_records_before; i < telemetry->train.size();
           ++i) {
        const size_t t = telemetry->train[i].iteration;
        if (t < epsilon_ledger.size()) {
          telemetry->train[i].epsilon = epsilon_ledger[t];
        }
      }
    }
    result.per_epoch_seconds = stats.seconds_per_iteration;
    if (!stats.losses.empty()) {
      const size_t tail = std::max<size_t>(1, stats.losses.size() / 4);
      std::vector<double> last(stats.losses.end() - tail,
                               stats.losses.end());
      result.final_loss = Mean(last);
    }
    if (ckpt_on) {
      ck.stage = PipelineStage::kTrained;
      ck.rng = rng.SaveState();
      // The container is training-stage input; nothing downstream reads
      // it, so the trained snapshot drops it to keep the file small.
      ck.container = SubgraphContainer();
      ck.model_params.resize(model_ptr->params().num_scalars());
      model_ptr->params().FlattenParams(ck.model_params);
      ck.per_epoch_seconds = result.per_epoch_seconds;
      ck.final_loss = result.final_loss;
      PRIVIM_RETURN_NOT_OK(SavePipelineState(ck, pipeline_path, metrics));
      PRIVIM_RETURN_NOT_OK(Failpoint("privim.ckpt.after_train"));
    }
  }
  GnnModel& model = *model_ptr;

  // ---- Inference: score the evaluation graph, select top-k seeds. ----
  // Rank by pre-sigmoid logits: identical ordering to the probabilities,
  // but immune to float32 sigmoid saturation flattening the top of the
  // ranking on graphs where most scores push toward 1. The reference plan
  // keeps the scores independent of the host's SIMD tier; a non-finite
  // logit (e.g. NaN parameters from a resumed checkpoint) fails here
  // rather than feeding TopKByScore's comparator an unordered score.
  PRIVIM_ASSIGN_OR_RETURN(
      const std::vector<float> logits,
      InferSeedLogits(model, eval_graph, PlanOptions::Reference()));
  const std::vector<double> scores(logits.begin(), logits.end());
  std::vector<NodeId> candidates(eval_graph.num_nodes());
  for (size_t u = 0; u < candidates.size(); ++u) {
    candidates[u] = static_cast<NodeId>(u);
  }
  // Random tie-breaking: a noise-destroyed model whose scores saturate to
  // one value must degrade to *random* seed selection, not to ascending
  // node-id order (which is hub-biased under preferential-attachment
  // generators and would flatter weak baselines).
  rng.Shuffle(candidates);
  PRIVIM_ASSIGN_OR_RETURN(SpreadOracle oracle,
                          MakeEvalOracle(eval_graph, cfg, rng, metrics));
  PRIVIM_ASSIGN_OR_RETURN(
      SeedSelection selection,
      TopKByScore(candidates, cfg.seed_count, scores,
                  InstrumentedOracle(oracle, metrics)));
  result.seeds = std::move(selection.seeds);
  result.spread = selection.spread;
  result.seed_scores.reserve(result.seeds.size());
  for (NodeId s : result.seeds) result.seed_scores.push_back(scores[s]);
  if (model_out != nullptr) *model_out = std::move(model_ptr);

  if (metrics != nullptr) {
    // Headline scalars of the run (DP outputs already in `result`).
    metrics->GetGauge("dp.sigma")->Set(result.sigma);
    metrics->GetGauge("dp.epsilon_spent")->Set(result.epsilon_spent);
    metrics->GetGauge("dp.noise_stddev")->Set(result.noise_stddev);
    metrics->GetGauge("dp.clip_bound")->Set(result.clip_bound_used);
    metrics->GetGauge("sampler.container_size")
        ->Set(static_cast<double>(result.container_size));

    // Runtime-pool usage scoped to this run (process-wide counters,
    // differenced; the queue high-water mark cannot be differenced, so it
    // is reported as the process-lifetime maximum).
    const RuntimeStats after = GetRuntimeStats();
    metrics->GetCounter("runtime.parallel_for_calls")
        ->Add(after.parallel_for_calls - runtime_before_.parallel_for_calls);
    metrics->GetCounter("runtime.tasks_executed")
        ->Add(after.tasks_executed - runtime_before_.tasks_executed);
    metrics->GetTimer("runtime.parallel_for")
        ->Add(after.parallel_for_calls - runtime_before_.parallel_for_calls,
              after.parallel_for_nanos - runtime_before_.parallel_for_nanos);
    metrics->GetGauge("runtime.pool_max_queue_depth")
        ->Set(static_cast<double>(after.max_queue_depth));
  }
  return std::move(result_);
}

Result<SpreadOracle> MakeEvalOracle(const Graph& g, const PrivImConfig& cfg,
                                    Rng& rng, MetricsRegistry* metrics) {
  switch (cfg.eval_diffusion) {
    case PrivImConfig::EvalDiffusion::kExactIc:
      return MakeExactUnitOracle(g, cfg.eval_steps);
    case PrivImConfig::EvalDiffusion::kMonteCarloIc:
      return MakeMonteCarloOracle(g, cfg.eval_trials, rng, cfg.eval_steps,
                                  cfg.runtime.num_threads, metrics);
    case PrivImConfig::EvalDiffusion::kLt:
      return MakeLtOracle(g, cfg.eval_trials, rng, cfg.eval_steps);
    case PrivImConfig::EvalDiffusion::kSis:
      return MakeSisOracle(g, cfg.eval_trials, cfg.sis_recovery,
                           std::max(cfg.eval_steps, 1), rng);
  }
  return Status::InvalidArgument("unknown eval_diffusion");
}

Result<PrivImRunResult> RunMethod(const Graph& train_graph,
                                  const Graph& eval_graph,
                                  const PrivImConfig& cfg, Rng& rng,
                                  std::unique_ptr<GnnModel>* model_out,
                                  RunTelemetry* telemetry) {
  PRIVIM_ASSIGN_OR_RETURN(
      std::unique_ptr<MethodExecution> exec,
      MethodExecution::Create(train_graph, eval_graph, cfg, rng, telemetry));
  PRIVIM_RETURN_NOT_OK(exec->Extract());
  return exec->Finish(model_out);
}

}  // namespace privim
