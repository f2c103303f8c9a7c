#include "core/loss.h"

namespace privim {

PlanValId LowerImPenaltyLoss(PlanBuilder& pb, const GraphContext& ctx,
                             PlanValId seed_probs,
                             const ImLossConfig& config) {
  PRIVIM_CHECK_GE(config.diffusion_steps, 1);

  // survival_u = prod_i (1 - p_hat_i(u)), built step by step.
  PlanValId h = seed_probs;  // h^(0) = x.
  PlanValId survival = -1;   // The first factor assigns it.
  for (int step = 0; step < config.diffusion_steps; ++step) {
    // z_u = sum_{v in N(u)} w_vu h_v — aggregation over in-edges, which in
    // the edge list means scattering source values into targets with the IC
    // weights (self-loop coefficient is 0 in ic_coef).
    const PlanValId z =
        pb.ScatterAddRows(h, ctx.src, ctx.dst, ctx.ic_coef, ctx.num_nodes);
    const PlanValId p = pb.InfluenceProb(z);  // p_hat_step in [0,1).
    const PlanValId one_minus_p = pb.AddScalar(pb.Scale(p, -1.0f), 1.0f);
    survival = step == 0 ? one_minus_p : pb.Mul(survival, one_minus_p);
    h = p;  // H^(i): newly influenced mass drives the next step.
  }

  const PlanValId uninfluenced = pb.MeanAll(survival);
  const PlanValId seed_mass = pb.MeanAll(seed_probs);
  return pb.Add(uninfluenced, pb.Scale(seed_mass, config.lambda));
}

}  // namespace privim
