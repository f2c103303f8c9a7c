#ifndef PRIVIM_CORE_PLAN_CACHE_H_
#define PRIVIM_CORE_PLAN_CACHE_H_

#include <memory>
#include <vector>

#include "core/loss.h"
#include "nn/gnn.h"
#include "nn/graph_context.h"
#include "sampling/container.h"
#include "tensor/matrix.h"
#include "tensor/plan.h"

namespace privim {

/// Everything the trainer derives from one subgraph sample, built once and
/// reused across iterations: the message-passing context, the structural
/// node features, and the compiled training plan. The plan borrows `ctx`'s
/// edge vectors, so the struct lives behind a stable pointer and `ctx` must
/// not be reassigned after compilation.
struct CompiledSubgraph {
  GraphContext ctx;
  Matrix features;
  GnnPlan train_plan;
};

/// Compiles the full training program for one subgraph — model forward,
/// sigmoid head, and the Eq. 5 penalty loss — into a single plan whose
/// [1,1] output is the loss. The default PlanOptions::Reference() runs the
/// scalar reference kernels (tensor/plan.h). Optimized options
/// (PlanOptions::Native()) enable elementwise fusion and SIMD kernels —
/// same schedule, tolerance-pinned numerics (docs/performance.md).
GnnPlan CompileTrainingPlan(const GnnModel& model, const GraphContext& ctx,
                            const ImLossConfig& loss,
                            const PlanOptions& opts = PlanOptions());

/// Lazy per-subgraph cache of derived training state. Entries are built on
/// first Get() and owned behind stable unique_ptrs, so plan-internal
/// pointers into an entry's GraphContext stay valid as the cache fills.
/// Get() is not thread-safe — the trainer touches each batch's entries
/// serially before the parallel fan-out; the returned entries are
/// immutable afterwards and safe to read concurrently.
class SubgraphPlanCache {
 public:
  /// Borrows `model` and `container`; both must outlive the cache.
  /// `plan_opts` selects the compiler passes for every compiled plan
  /// (TrainConfig::plan_optimize picks Native or Reference).
  SubgraphPlanCache(const GnnModel& model,
                    const SubgraphContainer& container,
                    const ImLossConfig& loss,
                    const PlanOptions& plan_opts = PlanOptions());

  size_t size() const { return entries_.size(); }

  /// The derived state for subgraph `idx`, built on first use.
  const CompiledSubgraph& Get(size_t idx);

 private:
  const GnnModel& model_;
  const SubgraphContainer& container_;
  ImLossConfig loss_;
  PlanOptions plan_opts_;
  std::vector<std::unique_ptr<CompiledSubgraph>> entries_;
};

}  // namespace privim

#endif  // PRIVIM_CORE_PLAN_CACHE_H_
