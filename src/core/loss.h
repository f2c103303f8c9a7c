#ifndef PRIVIM_CORE_LOSS_H_
#define PRIVIM_CORE_LOSS_H_

#include "nn/graph_context.h"
#include "tensor/plan.h"

namespace privim {

/// Configuration of the probabilistic-penalty IM loss (Eq. 5).
struct ImLossConfig {
  /// Diffusion steps j. The paper restricts j <= r (GNN depth) and
  /// evaluates with j = 1.
  int diffusion_steps = 1;
  /// Trade-off lambda between total non-influence probability and seed-set
  /// mass.
  float lambda = 0.25f;
};

/// Records the Erdős probabilistic-penalty loss for influence maximization
/// (Eq. 5) into a PlanBuilder:
///
///   L = mean_u prod_{i=1..j} (1 - p_hat_i(u))  +  lambda * mean_u x_u,
///
/// where x = `seed_probs` (the GNN's per-node seed probabilities, a
/// [ctx.num_nodes, 1] value id — typically the Sigmoid of
/// GnnModel::LowerLogits) and p_hat_i is the message-passing upper bound of the i-th step IC
/// influence probability (Theorem 2):
///   p_hat_i(u) = phi( sum_{v in N(u)} w_vu h_v^{(i-1)} ),  h^{(0)} = x,
/// with phi(z) = 1 - exp(-max(z,0)) — a smooth surrogate that stays an
/// upper-bounding companion of the IC non-activation product (the bound
/// direction is unit-tested).
///
/// Means (rather than sums) keep the per-sample gradient scale independent
/// of the subgraph size, so one clip bound C works across stage-1 (size n)
/// and stage-2 (size n/s) subgraphs.
///
/// Returns the [1,1] loss value id. Used by core/plan_cache.cc to compile
/// full training plans.
PlanValId LowerImPenaltyLoss(PlanBuilder& pb, const GraphContext& ctx,
                             PlanValId seed_probs,
                             const ImLossConfig& config);

}  // namespace privim

#endif  // PRIVIM_CORE_LOSS_H_
