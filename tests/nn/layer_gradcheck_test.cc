// Finite-difference gradient checks through complete GNN plans: the
// op-level gradcheck suite validates primitives; this validates each
// layer's lowering, for every backbone, end to end through the model head
// — on a sum-of-squares readout of the seed probabilities and on the real
// training plan (model + Eq. 5 loss, core/plan_cache.h). Every check runs
// on the Reference plan and on the Native plan, whose gradient must also
// agree with the Reference one within the relative 2e-3 of the
// docs/performance.md tolerance contract. Each model is checked at
// hidden_dim 6, where the Native plan runs fused scalar kernels, and at
// hidden_dim 8, wide enough for the Native plan to dispatch its SIMD
// kernels, so whole-model SIMD gradients are held to finite differences
// and not only to the Reference plan.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_cache.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "nn/gnn.h"

namespace privim {
namespace {

// Perturbs a strided subset of the parameters (covering every tensor) and
// compares the central difference of the plan's scalar output with
// ExecutionPlan::Backward. A two-layer model composes several
// piecewise-linear activations, and a float32 probe that straddles a kink
// sees different slopes on its two sides, which biases the central
// difference by O(1). Such a probe shows itself: its forward and backward
// one-sided differences disagree, and it is skipped. At least 3/4 of the
// probes must survive, so a wrong gradient cannot hide behind the skip;
// structure/sign errors violate the 12% band by orders of magnitude.
void CheckPlanGradient(const GnnPlan& plan, std::vector<float> theta,
                       const Matrix& features,
                       std::vector<float>* analytic_out, double tol = 0.12) {
  PlanArena arena;
  std::vector<float> analytic(theta.size());
  const auto loss = [&]() {
    plan.Forward(theta, features, arena);
    return static_cast<double>(plan.OutputScalar(arena));
  };
  const double base = loss();
  plan.Backward(theta, features, arena, analytic);
  const double eps = 1e-3;
  const size_t stride = std::max<size_t>(1, theta.size() / 60);
  size_t probed = 0;
  size_t checked = 0;
  for (size_t i = 0; i < theta.size(); i += stride) {
    const float orig = theta[i];
    theta[i] = orig + static_cast<float>(eps);
    const double up = loss();
    theta[i] = orig - static_cast<float>(eps);
    const double down = loss();
    theta[i] = orig;
    ++probed;
    const double forward = (up - base) / eps;
    const double backward = (base - down) / eps;
    const double scale =
        std::max(0.02, std::max(std::abs(forward), std::abs(backward)));
    if (std::abs(forward - backward) > tol * scale) continue;  // A kink.
    ++checked;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(0.02, std::abs(numeric)))
        << "parameter " << i;
  }
  EXPECT_GE(4 * checked, 3 * probed)
      << "only " << checked << " of " << probed
      << " probes were away from a kink";
  *analytic_out = std::move(analytic);
}

// Compiles `build` under Reference and Native and checks both.
template <typename Build>
void CheckBothEngines(const GnnModel& model, const Matrix& features,
                      const Build& build) {
  const std::vector<float> theta(model.params().values().begin(),
                                 model.params().values().end());
  std::vector<float> reference, native;
  {
    SCOPED_TRACE("reference plan");
    CheckPlanGradient(build(PlanOptions::Reference()), theta, features,
                      &reference);
  }
  {
    SCOPED_TRACE("native plan");
    CheckPlanGradient(build(PlanOptions::Native()), theta, features,
                      &native);
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(native[i], reference[i],
                2e-3 * std::max(1.0, std::abs(double{reference[i]})))
        << "native vs reference, parameter " << i;
  }
}

class LayerGradCheckTest : public ::testing::TestWithParam<GnnType> {};

TEST_P(LayerGradCheckTest, ModelGradientsMatchFiniteDifferences) {
  Rng gen(1);
  Graph g = std::move(ErdosRenyi(15, 0.25, true, gen)).ValueOrDie();
  const GraphContext ctx = BuildGraphContext(g);
  const Matrix features = BuildNodeFeatures(g);

  for (const size_t hidden_dim : {6, 8}) {
    SCOPED_TRACE("hidden_dim " + std::to_string(hidden_dim));
    GnnConfig cfg;
    cfg.type = GetParam();
    cfg.in_dim = kNodeFeatureDim;
    cfg.hidden_dim = hidden_dim;
    cfg.num_layers = 2;
    Rng rng(2);
    const GnnModel model(cfg, rng);
    {
      SCOPED_TRACE("sum of squared seed probabilities");
      CheckBothEngines(model, features, [&](const PlanOptions& opts) {
        PlanBuilder pb;
        const PlanValId x = pb.Input(ctx.num_nodes, cfg.in_dim);
        const PlanValId out = pb.Sigmoid(model.LowerLogits(pb, ctx, x));
        return pb.Build(pb.Sum(pb.Mul(out, out)), opts);
      });
    }
    {
      SCOPED_TRACE("training plan, j = 2");
      ImLossConfig loss;
      loss.diffusion_steps = 2;
      CheckBothEngines(model, features, [&](const PlanOptions& opts) {
        return CompileTrainingPlan(model, ctx, loss, opts);
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, LayerGradCheckTest,
                         ::testing::Values(GnnType::kGcn, GnnType::kSage,
                                           GnnType::kGin, GnnType::kGat,
                                           GnnType::kGrat),
                         [](const auto& info) {
                           return GnnTypeName(info.param);
                         });

}  // namespace
}  // namespace privim
