#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ckpt/failpoint.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/plan_cache.h"
#include "dp/mechanisms.h"
#include "nn/optimizer.h"
#include "runtime/parallel_for.h"
#include "runtime/runtime.h"

namespace privim {

namespace {

/// Per-sample gradient state filled by the workers and reduced in index
/// order by the main thread.
struct SampleSlot {
  std::vector<float> grad;
  double loss = 0.0;
  double pre_clip_norm = 0.0;
};

}  // namespace

Result<TrainStats> TrainDpGnn(GnnModel& model,
                              const SubgraphContainer& container,
                              const TrainConfig& config, Rng& rng) {
  if (container.empty()) {
    return Status::FailedPrecondition("subgraph container is empty");
  }
  if (config.batch_size == 0 || config.iterations == 0) {
    return Status::InvalidArgument("batch size and iterations must be > 0");
  }
  if (config.clip_bound < 0.0) {
    return Status::InvalidArgument("clip bound must be non-negative");
  }
  if (config.clip_bound == 0.0 && config.noise_kind != NoiseKind::kNone) {
    return Status::InvalidArgument(
        "clipping may only be disabled for noiseless training");
  }

  // Derived per-subgraph state (message-passing context, structural
  // features, compiled plan) is built lazily on first touch and reused
  // across iterations — only the subgraphs a batch actually draws pay the
  // build cost.
  const size_t m = container.size();
  SubgraphPlanCache cache(model, container, config.loss,
                          config.plan_optimize ? PlanOptions::Native()
                                               : PlanOptions::Reference());

  const size_t dim = model.params().num_scalars();
  std::vector<float> batch_sum(dim);
  std::unique_ptr<Optimizer> optimizer;
  if (config.optimizer == OptimizerKind::kAdam) {
    optimizer = std::make_unique<AdamOptimizer>(config.learning_rate);
  } else {
    optimizer = std::make_unique<SgdOptimizer>(config.learning_rate);
  }

  // Parallel setup. The compiled plans are shared, stateless programs:
  // every worker reads the model's flat parameter vector (nothing writes it
  // until the fan-out has joined) and owns a PlanArena. The gradient of a
  // subgraph is a deterministic function of (parameters, subgraph) alone —
  // no RNG — so which worker computes it cannot change a single bit.
  const size_t threads = std::max<size_t>(
      1, std::min(ResolveNumThreads(config.num_threads), config.batch_size));
  ThreadPool* pool = SharedPool(threads);
  std::vector<PlanArena> arenas(threads);
  const std::span<const float> params = model.params().values();

  std::vector<SampleSlot> samples(config.batch_size);
  for (SampleSlot& s : samples) s.grad.resize(dim);
  std::vector<size_t> batch_indices(config.batch_size);
  std::vector<const CompiledSubgraph*> batch_entries(config.batch_size);

  // Polyak tail averaging state: accumulate iterates over the last
  // quarter of the run.
  const size_t tail_start =
      config.tail_averaging ? config.iterations - (config.iterations + 3) / 4
                            : config.iterations;
  std::vector<double> tail_sum(config.tail_averaging ? dim : 0, 0.0);
  size_t tail_count = 0;
  std::vector<float> snapshot(config.tail_averaging ? dim : 0);

  TrainStats stats;
  stats.losses.reserve(config.iterations);
  stats.grad_norms.reserve(config.iterations);
  double norm_accum = 0.0;
  size_t norm_count = 0;

  // Mid-training resume: restore every piece of loop state bit-exactly and
  // continue from the saved iteration as if the interruption never
  // happened. The RNG state carries the caller's stream position (so the
  // batch draws and noise draws line up with the uninterrupted run), and
  // the tail accumulator is restored rather than recomputed so the final
  // parameter average cannot drift.
  size_t start_iteration = 0;
  if (config.resume != nullptr) {
    const TrainerState& r = *config.resume;
    if (r.params.size() != dim) {
      return Status::FailedPrecondition(StrFormat(
          "trainer checkpoint has %zu parameters, model has %zu",
          r.params.size(), dim));
    }
    if (r.iteration > config.iterations) {
      return Status::FailedPrecondition(StrFormat(
          "trainer checkpoint is at iteration %llu but the run has only %zu",
          static_cast<unsigned long long>(r.iteration), config.iterations));
    }
    if (config.tail_averaging && !r.tail_sum.empty() &&
        r.tail_sum.size() != dim) {
      return Status::FailedPrecondition(
          "trainer checkpoint tail accumulator size mismatch");
    }
    PRIVIM_RETURN_NOT_OK(optimizer->RestoreState(r.optimizer));
    model.params().LoadParams(r.params);
    rng.RestoreState(r.rng);
    if (config.tail_averaging && !r.tail_sum.empty()) tail_sum = r.tail_sum;
    tail_count = r.tail_count;
    stats.losses = r.losses;
    stats.grad_norms = r.grad_norms;
    norm_accum = r.norm_accum;
    norm_count = r.norm_count;
    start_iteration = r.iteration;
  }
  WallTimer timer;

  // Telemetry instruments, registered once outside the hot loop. Everything
  // recorded here is computed from quantities the loop already releases to
  // the trainer (pre-clip norms, the noised batch sum), so it is pure DP
  // post-processing and bit-identical across thread counts.
  Histogram* grad_norm_hist = nullptr;
  TimerStat* iter_timer = nullptr;
  Counter* clipped_counter = nullptr;
  std::vector<float> pre_noise_sum;
  if (config.telemetry != nullptr) {
    MetricsRegistry& reg = config.telemetry->metrics;
    grad_norm_hist =
        reg.GetHistogram("train.grad_norm", ExponentialBuckets(1e-4, 2.0, 24));
    iter_timer = reg.GetTimer("train.iteration");
    clipped_counter = reg.GetCounter("train.clipped_samples");
    config.telemetry->train.reserve(config.telemetry->train.size() +
                                    config.iterations);
    if (config.noise_kind != NoiseKind::kNone) pre_noise_sum.resize(dim);
  }

  // Line 6: per-sample clip to C (skipped in unclipped non-private mode).
  auto clip_sample = [&](SampleSlot& slot) {
    if (config.clip_bound > 0.0) {
      slot.pre_clip_norm = ClipL2(slot.grad, config.clip_bound);
    } else {
      slot.pre_clip_norm = L2Norm(
          std::span<const float>(slot.grad.data(), slot.grad.size()));
    }
  };

  // One per-sample pass (Lines 5-6 of Algorithm 2) on the compiled plan,
  // writing into `slot`: zero heap allocations once the slot's arena is
  // warm. Backward zeroes and fills `slot.grad` directly in flat
  // ParamStore order.
  auto compute_sample = [&](const CompiledSubgraph& cs, size_t slot_id,
                            SampleSlot& slot) {
    const GnnPlan& plan = cs.train_plan;
    PlanArena& arena = arenas[slot_id];
    plan.Forward(params, cs.features, arena);
    slot.loss = plan.OutputScalar(arena);
    plan.Backward(params, cs.features, arena, slot.grad);
    clip_sample(slot);
  };

  MetricsRegistry* ckpt_metrics =
      config.telemetry != nullptr ? &config.telemetry->metrics : nullptr;

  for (size_t t = start_iteration; t < config.iterations; ++t) {
    ScopedTimer iter_scope(iter_timer);
    // Line 5: draw the batch up front. The caller's RNG consumption (B
    // uniform draws, then the noise draw) is identical to the serial
    // implementation for every thread count.
    for (size_t b = 0; b < config.batch_size; ++b) {
      batch_indices[b] = static_cast<size_t>(rng.UniformInt(m));
    }
    // Touch the batch's cache entries on this thread: lazy building is not
    // thread-safe, and after the first epoch this is all pointer reads.
    for (size_t b = 0; b < config.batch_size; ++b) {
      batch_entries[b] = &cache.Get(batch_indices[b]);
    }

    if (pool == nullptr) {
      for (size_t b = 0; b < config.batch_size; ++b) {
        compute_sample(*batch_entries[b], 0, samples[b]);
      }
    } else {
      ParallelForWithSlots(pool, 0, config.batch_size, /*grain=*/1,
                           arenas.size(), [&](size_t b, size_t slot) {
                             compute_sample(*batch_entries[b], slot,
                                            samples[b]);
                           });
    }

    // Reduce in index order: float summation order is fixed, so the batch
    // sum is bit-identical to the serial loop.
    std::fill(batch_sum.begin(), batch_sum.end(), 0.0f);
    double loss_accum = 0.0;
    double iter_norm_accum = 0.0;
    size_t clipped_in_batch = 0;
    for (size_t b = 0; b < config.batch_size; ++b) {
      const SampleSlot& slot = samples[b];
      loss_accum += slot.loss;
      norm_accum += slot.pre_clip_norm;
      iter_norm_accum += slot.pre_clip_norm;
      ++norm_count;
      if (config.clip_bound > 0.0 && slot.pre_clip_norm > config.clip_bound) {
        ++clipped_in_batch;
      }
      if (grad_norm_hist != nullptr) {
        grad_norm_hist->Observe(slot.pre_clip_norm);
      }
      for (size_t i = 0; i < dim; ++i) batch_sum[i] += slot.grad[i];
    }
    if (clipped_counter != nullptr) clipped_counter->Add(clipped_in_batch);
    if (!pre_noise_sum.empty()) {
      std::copy(batch_sum.begin(), batch_sum.end(), pre_noise_sum.begin());
    }

    // Line 8: perturb the summed clipped gradients — the single noise
    // draw, after aggregation, exactly as in the serial algorithm.
    switch (config.noise_kind) {
      case NoiseKind::kNone:
        break;
      case NoiseKind::kGaussian:
        AddGaussianNoise(batch_sum, config.noise_stddev, rng);
        break;
      case NoiseKind::kSml:
        AddSymmetricMultivariateLaplaceNoise(batch_sum,
                                             config.noise_stddev, rng);
        break;
    }

    // L2 of the injected noise vector — post-processing of the released
    // noisy sum against the (already computed) clean sum. Must happen
    // before the 1/B scaling below.
    double noise_l2 = 0.0;
    if (!pre_noise_sum.empty()) {
      double sq = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        const double d = static_cast<double>(batch_sum[i]) -
                         static_cast<double>(pre_noise_sum[i]);
        sq += d * d;
      }
      noise_l2 = std::sqrt(sq);
    }

    // Line 9: update with the averaged private gradient.
    const float inv_b = 1.0f / static_cast<float>(config.batch_size);
    for (float& v : batch_sum) v *= inv_b;
    optimizer->Step(model.params(), batch_sum);

    stats.losses.push_back(loss_accum /
                           static_cast<double>(config.batch_size));
    stats.grad_norms.push_back(iter_norm_accum /
                               static_cast<double>(config.batch_size));

    if (config.telemetry != nullptr) {
      TrainIterationRecord rec;
      rec.iteration = t;
      rec.loss = stats.losses.back();
      rec.mean_grad_norm = stats.grad_norms.back();
      rec.clip_fraction =
          config.clip_bound > 0.0
              ? static_cast<double>(clipped_in_batch) /
                    static_cast<double>(config.batch_size)
              : 0.0;
      rec.noise_l2 = noise_l2;
      config.telemetry->train.push_back(rec);
    }

    if (config.tail_averaging && t >= tail_start) {
      model.params().FlattenParams(snapshot);
      for (size_t i = 0; i < dim; ++i) tail_sum[i] += snapshot[i];
      ++tail_count;
    }

    // Periodic durable snapshot at the iteration boundary. Everything the
    // loop mutates is captured: the next resume replays from here with
    // identical RNG consumption. The fail point fires only after Commit
    // has renamed the file into place, so an injected kill always leaves a
    // loadable checkpoint.
    if (!config.checkpoint_path.empty() && config.checkpoint_every > 0 &&
        (t + 1) % config.checkpoint_every == 0 &&
        t + 1 < config.iterations) {
      TrainerState state;
      state.iteration = t + 1;
      state.params.resize(dim);
      model.params().FlattenParams(state.params);
      state.optimizer = optimizer->ExportState();
      state.rng = rng.SaveState();
      state.tail_sum = tail_sum;
      state.tail_count = tail_count;
      state.losses = stats.losses;
      state.grad_norms = stats.grad_norms;
      state.norm_accum = norm_accum;
      state.norm_count = norm_count;
      PRIVIM_RETURN_NOT_OK(
          SaveTrainerState(state, config.checkpoint_path, ckpt_metrics));
      PRIVIM_RETURN_NOT_OK(Failpoint("privim.ckpt.train"));
    }
  }

  if (config.tail_averaging && tail_count > 0) {
    for (size_t i = 0; i < dim; ++i) {
      snapshot[i] =
          static_cast<float>(tail_sum[i] / static_cast<double>(tail_count));
    }
    model.params().LoadParams(snapshot);
  }

  stats.mean_grad_norm =
      norm_count > 0 ? norm_accum / static_cast<double>(norm_count) : 0.0;
  // A resumed run only timed the iterations it actually executed.
  const size_t executed =
      std::max<size_t>(1, config.iterations - start_iteration);
  stats.seconds_per_iteration =
      timer.ElapsedSeconds() / static_cast<double>(executed);
  return stats;
}

}  // namespace privim
