// Tests for the runtime ISA dispatch (tensor/kernels.cc): CPUID-derived
// MaxSupportedIsa, the PRIVIM_FORCE_ISA override (clamps down, never up;
// case-insensitive; unknown values ignored), which tier a Native-built
// plan actually selects, and cross-ISA agreement: the same training plan
// compiled at every available tier produces losses and gradients within
// the documented tolerance of the scalar reference.

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/loss.h"
#include "core/plan_cache.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "nn/gnn.h"
#include "nn/graph_context.h"
#include "tensor/kernels.h"

namespace privim {
namespace {

using simd::GetKernels;
using simd::Isa;
using simd::IsaName;
using simd::MaxSupportedIsa;
using simd::ResolveIsa;

// Scoped PRIVIM_FORCE_ISA override; restores the prior state on exit so
// tests leave the process environment untouched. ResolveIsa re-reads the
// variable per call, so flipping it mid-process is supported.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(const char* value) {
    const char* prev = std::getenv("PRIVIM_FORCE_ISA");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value != nullptr) {
      ::setenv("PRIVIM_FORCE_ISA", value, /*overwrite=*/1);
    } else {
      ::unsetenv("PRIVIM_FORCE_ISA");
    }
  }
  ~ScopedForceIsa() {
    if (had_prev_) {
      ::setenv("PRIVIM_FORCE_ISA", prev_.c_str(), 1);
    } else {
      ::unsetenv("PRIVIM_FORCE_ISA");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(IsaDispatchTest, MaxSupportedTierIsExecutable) {
  const Isa max = MaxSupportedIsa();
  // GetKernels at the max tier must return its own table, and every tier
  // at or below max must resolve to a non-null, safe-to-run table.
  EXPECT_EQ(GetKernels(max).isa, max);
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const simd::Kernels& k = GetKernels(isa);
    EXPECT_LE(static_cast<int>(k.isa), static_cast<int>(max));
    EXPECT_NE(k.matmul, nullptr);
    EXPECT_NE(k.weighted_scatter_add_rows_grad, nullptr);
  }
}

TEST(IsaDispatchTest, ForceScalarAlwaysHonored) {
  ScopedForceIsa force("scalar");
  EXPECT_EQ(ResolveIsa(), Isa::kScalar);
  // A Native-built plan under the override selects scalar kernels.
  EXPECT_EQ(PlanOptions::Native().isa, Isa::kScalar);
}

TEST(IsaDispatchTest, ForceIsCaseInsensitive) {
  ScopedForceIsa force("ScAlAr");
  EXPECT_EQ(ResolveIsa(), Isa::kScalar);
}

TEST(IsaDispatchTest, ForceAvx2ClampsToHost) {
  ScopedForceIsa force("avx2");
  const Isa want =
      MaxSupportedIsa() >= Isa::kAvx2 ? Isa::kAvx2 : MaxSupportedIsa();
  EXPECT_EQ(ResolveIsa(), want);
}

TEST(IsaDispatchTest, ForceAvx512NeverExceedsHost) {
  ScopedForceIsa force("AVX512");
  const Isa got = ResolveIsa();
  EXPECT_LE(static_cast<int>(got), static_cast<int>(MaxSupportedIsa()));
  if (MaxSupportedIsa() == Isa::kAvx512) {
    EXPECT_EQ(got, Isa::kAvx512);
  }
}

TEST(IsaDispatchTest, UnknownValueIgnored) {
  ScopedForceIsa force("sse9-neon");
  EXPECT_EQ(ResolveIsa(), MaxSupportedIsa());
}

TEST(IsaDispatchTest, UnsetUsesHostMax) {
  ScopedForceIsa force(nullptr);
  EXPECT_EQ(ResolveIsa(), MaxSupportedIsa());
  EXPECT_EQ(PlanOptions::Native().isa, MaxSupportedIsa());
}

TEST(IsaDispatchTest, NativePlanReportsSelectedTier) {
  Rng grng(7000);
  Graph g = std::move(ErdosRenyi(17, 0.2, false, grng)).ValueOrDie();
  const GraphContext ctx = BuildGraphContext(g);
  GnnConfig mc;
  mc.type = GnnType::kGrat;
  mc.in_dim = kNodeFeatureDim;
  mc.hidden_dim = 8;
  mc.num_layers = 2;
  Rng mrng(7001);
  GnnModel model(mc, mrng);
  ImLossConfig loss_cfg;

  {
    ScopedForceIsa force("scalar");
    const GnnPlan plan =
        CompileTrainingPlan(model, ctx, loss_cfg, PlanOptions::Native());
    EXPECT_EQ(plan.isa(), Isa::kScalar);
    EXPECT_TRUE(plan.fused());
  }
  {
    ScopedForceIsa force(nullptr);
    const GnnPlan plan =
        CompileTrainingPlan(model, ctx, loss_cfg, PlanOptions::Native());
    EXPECT_EQ(plan.isa(), MaxSupportedIsa());
  }
  // Kernel tables are finalized at Build: flipping the env afterwards must
  // not change an existing plan's behaviour. (The plan keeps reporting the
  // tier it was compiled with.)
  const GnnPlan pinned =
      CompileTrainingPlan(model, ctx, loss_cfg, PlanOptions::Native());
  const Isa built_with = pinned.isa();
  ScopedForceIsa force("scalar");
  EXPECT_EQ(pinned.isa(), built_with);
}

// All available tiers agree on the same training plan within the
// documented tolerance: SIMD matmuls use FMA + reassociated reductions,
// so exact equality is not expected — but everything downstream of them
// (losses, gradients) must stay within a small relative band of the
// scalar reference.
TEST(IsaDispatchTest, AllAvailableTiersAgreeWithinTolerance) {
  for (GnnType type : {GnnType::kGrat, GnnType::kGin}) {
    SCOPED_TRACE(GnnTypeName(type));
    Rng grng(7100);
    Graph g = std::move(ErdosRenyi(33, 0.12, false, grng)).ValueOrDie();
    const GraphContext ctx = BuildGraphContext(g);
    const Matrix features = BuildNodeFeatures(g);
    GnnConfig mc;
    mc.type = type;
    mc.in_dim = kNodeFeatureDim;
    mc.hidden_dim = 8;
    mc.num_layers = 2;
    Rng mrng(7101);
    GnnModel model(mc, mrng);
    ImLossConfig loss_cfg;
    loss_cfg.diffusion_steps = 2;
    const size_t dim = model.params().num_scalars();
    std::vector<float> params(dim);
    model.params().FlattenParams(params);

    // Scalar reference (unfused — the oracle every tier is held to).
    const GnnPlan ref =
        CompileTrainingPlan(model, ctx, loss_cfg, PlanOptions::Reference());
    PlanArena ra;
    std::vector<float> ref_grad(dim);
    ref.Forward(params, features, ra);
    const float ref_loss = ref.OutputScalar(ra);
    ref.Backward(params, features, ra, ref_grad);
    double ref_norm = 0.0;
    for (float v : ref_grad) ref_norm += static_cast<double>(v) * v;
    ref_norm = std::sqrt(ref_norm);

    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
      if (GetKernels(isa).isa != isa) continue;  // Tier unavailable here.
      SCOPED_TRACE(IsaName(isa));
      PlanOptions opts;
      opts.fuse_elementwise = true;
      opts.isa = isa;
      const GnnPlan plan = CompileTrainingPlan(model, ctx, loss_cfg, opts);
      ASSERT_EQ(plan.isa(), isa);

      PlanArena arena;
      std::vector<float> grad(dim);
      plan.Forward(params, features, arena);
      plan.Backward(params, features, arena, grad);

      EXPECT_NEAR(plan.OutputScalar(arena), ref_loss,
                  1e-4 * (1.0 + std::abs(ref_loss)));
      // Gradients: elementwise band scaled by the gradient's own norm so
      // near-zero entries don't demand absolute agreement they can't have.
      const double tol = 1e-4 * (ref_norm + 1.0);
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_NEAR(grad[i], ref_grad[i], tol) << "grad scalar " << i;
      }
    }
  }
}

}  // namespace
}  // namespace privim
