#ifndef PRIVIM_CORE_TRAINER_H_
#define PRIVIM_CORE_TRAINER_H_

#include <vector>

#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/loss.h"
#include "nn/gnn.h"
#include "obs/telemetry.h"
#include "sampling/container.h"

namespace privim {

/// Noise family injected into the summed clipped gradients.
enum class NoiseKind {
  kNone,      // Non-private.
  kGaussian,  // PrivIM / PrivIM* / EGN (Algorithm 2).
  kSml,       // HP baselines (Symmetric Multivariate Laplace).
};

/// Optimizer applied to the privatized gradient. Both are valid under the
/// same accounting: the noisy gradient is produced first (Lines 4-8 of
/// Algorithm 2) and the optimizer is post-processing.
enum class OptimizerKind { kSgd, kAdam };

/// Hyper-parameters of the DP training loop (Algorithm 2).
struct TrainConfig {
  size_t batch_size = 16;
  size_t iterations = 40;
  float learning_rate = 0.05f;
  /// Algorithm 2 uses SGD; Adam is offered for the non-private reference
  /// (with DP noise, Adam's variance normalization amplifies pure noise to
  /// full-size steps, so SGD is the right default for private runs).
  OptimizerKind optimizer = OptimizerKind::kSgd;
  /// Per-sample (per-subgraph) L2 clip bound C. 0 disables clipping
  /// (non-private training only — DP runs must clip).
  double clip_bound = 1.0;
  /// Standard deviation of the injected noise, i.e. sigma * Delta_g for
  /// Gaussian (Line 8) or the SML scale for HP. 0 disables noise.
  double noise_stddev = 0.0;
  NoiseKind noise_kind = NoiseKind::kGaussian;
  /// Polyak tail averaging: release the average of the parameter iterates
  /// over the final quarter of iterations instead of the last iterate.
  /// Pure post-processing of the DP-SGD trajectory (every iterate is
  /// already covered by the T-fold composition), so it costs no privacy
  /// while averaging away much of the per-iteration noise.
  bool tail_averaging = true;
  /// Worker parallelism for the per-subgraph gradient fan-out (0 = use the
  /// global runtime default). Per-sample gradients are computed on compiled
  /// execution plans (tensor/plan.h, core/plan_cache.h): one read-only plan
  /// per subgraph shared by every worker, parameters bound per iteration,
  /// one arena per worker slot, allocation-free once warm. They are reduced
  /// into the batch sum in index order before the single noise draw, so
  /// results are bit-identical for every thread count and the DP
  /// accounting is untouched (see docs/runtime.md).
  size_t num_threads = 0;
  /// Compile plans with the optimizing passes (elementwise fusion + SIMD
  /// kernels, PlanOptions::Native()) instead of the scalar reference.
  /// Optimized plans remain deterministic and thread-count invariant, but
  /// their gradients match the reference plans only within the tolerance
  /// contract of docs/performance.md — set to false when bit-identity with
  /// the reference is required (tests/core/trainer_simd_diff_test.cc and
  /// the pipeline goldens do). PRIVIM_FORCE_ISA=scalar downgrades just the
  /// SIMD half at runtime.
  bool plan_optimize = true;
  ImLossConfig loss;
  /// Optional run telemetry. When set, the loop appends one
  /// TrainIterationRecord per iteration (loss, clip fraction, mean pre-clip
  /// gradient norm, injected-noise L2) and fills a pre-clip gradient-norm
  /// histogram in `telemetry->metrics`. Recording reads only quantities the
  /// loop already releases to the trainer, so it is DP post-processing
  /// (docs/observability.md); values are bit-identical for every thread
  /// count. The cumulative-epsilon field of each record is left NaN — the
  /// privacy ledger is the accountant's job (RunMethod zips it in).
  RunTelemetry* telemetry = nullptr;
  /// When non-empty, a TrainerState snapshot is committed to this path
  /// every `checkpoint_every` iterations (at an iteration boundary, after
  /// the optimizer step and tail-averaging accumulation). The write is
  /// atomic (tmp + rename) and is followed by the `privim.ckpt.train` fail
  /// point, so fault-injection tests can kill the process with the
  /// snapshot already durable.
  std::string checkpoint_path;
  size_t checkpoint_every = 10;
  /// Resume mid-training from a previously saved TrainerState: parameters,
  /// optimizer moments, RNG stream (including the Box-Muller spare), the
  /// tail-averaging accumulator, and the running statistics are restored
  /// bit-exactly and the loop starts at `resume->iteration`. The state
  /// must match this config (parameter count, optimizer kind,
  /// iteration <= iterations) or TrainDpGnn fails with FailedPrecondition.
  /// Borrowed pointer; must outlive the call.
  const TrainerState* resume = nullptr;
};

/// Per-run training telemetry.
struct TrainStats {
  /// Mean batch loss per iteration.
  std::vector<double> losses;
  /// Mean pre-clip per-sample gradient norm over the run (diagnostic).
  double mean_grad_norm = 0.0;
  /// Mean pre-clip per-sample gradient norm per iteration (used by the
  /// clip-bound calibration, which wants the post-warmup scale).
  std::vector<double> grad_norms;
  /// Seconds per iteration ("per-epoch training" in Table III), measured
  /// on the monotonic clock of common/timer.h (never the system wall
  /// clock, which can jump under NTP adjustments mid-run).
  double seconds_per_iteration = 0.0;
};

/// Algorithm 2: DP-SGD over subgraph samples.
///
/// Each subgraph is one "per-sample": its gradient is clipped to C, the
/// batch sum is perturbed with noise of the given kind/scale, and the model
/// is updated with the averaged private gradient. Fails if the container is
/// empty or smaller than the batch size.
Result<TrainStats> TrainDpGnn(GnnModel& model,
                              const SubgraphContainer& container,
                              const TrainConfig& config, Rng& rng);

}  // namespace privim

#endif  // PRIVIM_CORE_TRAINER_H_
