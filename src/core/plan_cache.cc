#include "core/plan_cache.h"

#include "nn/features.h"

namespace privim {

GnnPlan CompileTrainingPlan(const GnnModel& model, const GraphContext& ctx,
                            const ImLossConfig& loss,
                            const PlanOptions& opts) {
  PlanBuilder pb;
  const PlanValId x = pb.Input(ctx.num_nodes, model.config().in_dim);
  const PlanValId probs = pb.Sigmoid(model.LowerLogits(pb, ctx, x));
  return pb.Build(LowerImPenaltyLoss(pb, ctx, probs, loss), opts);
}

SubgraphPlanCache::SubgraphPlanCache(const GnnModel& model,
                                     const SubgraphContainer& container,
                                     const ImLossConfig& loss,
                                     const PlanOptions& plan_opts)
    : model_(model),
      container_(container),
      loss_(loss),
      plan_opts_(plan_opts),
      entries_(container.size()) {}

const CompiledSubgraph& SubgraphPlanCache::Get(size_t idx) {
  PRIVIM_CHECK_LT(idx, entries_.size());
  if (entries_[idx] == nullptr) {
    auto e = std::make_unique<CompiledSubgraph>();
    e->ctx = BuildGraphContext(container_[idx].local);
    e->features = BuildNodeFeatures(container_[idx].local);
    e->train_plan = CompileTrainingPlan(model_, e->ctx, loss_, plan_opts_);
    entries_[idx] = std::move(e);
  }
  return *entries_[idx];
}

}  // namespace privim
