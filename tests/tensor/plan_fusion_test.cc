// Unit tests for the elementwise-fusion compiler pass (PlanBuilder::Build
// with PlanOptions::fuse_elementwise):
//  - op-count reduction on the real training plans of every GnnType;
//  - fusion alone (scalar kernels) stays BIT-identical to the reference
//    plan — the fused sweep applies the same scalar arithmetic per
//    element, so this suite compares exact bit patterns;
//  - group-formation guards: no fusion across non-elementwise ops
//    (MatMul and its scratch_db staging), no fusion past an in-group
//    operand (aliasing), kMaxFuseLen splitting;
//  - write elision: values observed by nothing outside their group are
//    skipped, values read by a backward pass are not;
//  - fused + SIMD plans re-executed on a warm arena are bit-identical to
//    their own first run (steady-state determinism);
//  - arena layout: a forward-only execution sizes only the forward prefix
//    (no gradient buffers), and a Backward that grows it later matches a
//    pre-grown arena bitwise.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/loss.h"
#include "core/plan_cache.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "nn/gnn.h"
#include "nn/graph_context.h"
#include "tensor/plan.h"

namespace privim {
namespace {

using Steps = std::vector<std::pair<int32_t, int32_t>>;

void ExpectBitEqual(std::span<const float> a, std::span<const float> b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    ASSERT_EQ(ba, bb) << what << " diverges at scalar " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

void ExpectBitEqualScalar(float a, float b, const std::string& what) {
  ExpectBitEqual(std::span<const float>(&a, 1),
                 std::span<const float>(&b, 1), what);
}

struct TrainingSetup {
  GraphContext ctx;
  Matrix features;
  ImLossConfig loss_cfg;
};

TrainingSetup MakeSetup(size_t n, uint64_t seed) {
  Rng grng(seed);
  Graph g =
      std::move(ErdosRenyi(n, n <= 2 ? 1.0 : 0.15, false, grng)).ValueOrDie();
  TrainingSetup s{BuildGraphContext(g), BuildNodeFeatures(g), ImLossConfig{}};
  s.loss_cfg.diffusion_steps = 2;  // Covers the InfluenceProb/Mul chain.
  return s;
}

GnnModel MakeModel(GnnType type, uint64_t seed) {
  GnnConfig mc;
  mc.type = type;
  mc.in_dim = kNodeFeatureDim;
  mc.hidden_dim = 8;
  mc.num_layers = 2;
  Rng mrng(seed);
  return GnnModel(mc, mrng);
}

std::vector<float> FlatParams(const GnnModel& model) {
  std::vector<float> out(model.params().num_scalars());
  model.params().FlattenParams(out);
  return out;
}

const GnnType kAllTypes[] = {GnnType::kGcn, GnnType::kSage, GnnType::kGin,
                             GnnType::kGat, GnnType::kGrat};

TEST(PlanFusionTest, ReducesForwardScheduleOnEveryGnnType) {
  for (GnnType type : kAllTypes) {
    SCOPED_TRACE(GnnTypeName(type));
    const TrainingSetup s = MakeSetup(17, 2000);
    const GnnModel model = MakeModel(type, 2001);

    const GnnPlan ref = CompileTrainingPlan(model, s.ctx, s.loss_cfg,
                                            PlanOptions::Reference());
    PlanOptions fuse_only;
    fuse_only.fuse_elementwise = true;  // isa stays kScalar.
    const GnnPlan fused =
        CompileTrainingPlan(model, s.ctx, s.loss_cfg, fuse_only);

    EXPECT_FALSE(ref.fused());
    EXPECT_EQ(ref.num_forward_steps(), ref.num_ops());
    ASSERT_TRUE(fused.fused());
    EXPECT_EQ(fused.num_ops(), ref.num_ops());
    // Every GnnType's plan carries at least: one LeakyRelu tail per layer
    // (2 layers), the head bias+Sigmoid pair, and the per-diffusion-step
    // InfluenceProb/Scale/AddScalar(/Mul) loss chain.
    EXPECT_LE(fused.num_forward_steps() + 4, fused.num_ops());

    // The fused schedule partitions the op list exactly.
    size_t covered = 0;
    for (const auto& [first, count] : fused.ForwardSteps()) {
      EXPECT_EQ(static_cast<size_t>(first), covered);
      ASSERT_GE(count, 1);
      ASSERT_LE(count, 8);
      covered += static_cast<size_t>(count);
    }
    EXPECT_EQ(covered, fused.num_ops());
  }
}

TEST(PlanFusionTest, FusedScalarPlanBitIdenticalToReference) {
  for (GnnType type : kAllTypes) {
    for (size_t n : {size_t{2}, size_t{17}}) {
      SCOPED_TRACE(GnnTypeName(type) + " n=" + std::to_string(n));
      const TrainingSetup s = MakeSetup(n, 3000 + n);
      const GnnModel model = MakeModel(type, 3100 + n);
      const std::vector<float> params = FlatParams(model);

      const GnnPlan ref = CompileTrainingPlan(model, s.ctx, s.loss_cfg,
                                              PlanOptions::Reference());
      PlanOptions fuse_only;
      fuse_only.fuse_elementwise = true;
      const GnnPlan fused =
          CompileTrainingPlan(model, s.ctx, s.loss_cfg, fuse_only);
      ASSERT_EQ(fused.isa(), simd::Isa::kScalar);

      const size_t dim = params.size();
      PlanArena ra, fa;
      std::vector<float> rg(dim, 42.0f), fg(dim, -42.0f);
      ref.Forward(params, s.features, ra);
      fused.Forward(params, s.features, fa);
      ExpectBitEqualScalar(fused.OutputScalar(fa), ref.OutputScalar(ra),
                           "loss");
      ref.Backward(params, s.features, ra, rg);
      fused.Backward(params, s.features, fa, fg);
      ExpectBitEqual(fg, rg, "gradients");
    }
  }
}

// x -> Relu -> Scale -> Mul(., Relu_out): the Mul's second operand is
// produced INSIDE the candidate group, so fusion must stop before it —
// otherwise the sweep would read a buffer that is elided or only
// partially written. Ops: 0=Relu 1=Scale 2=Mul 3=Sum.
TEST(PlanFusionTest, AliasingGuardStopsGroupAtInGroupOperand) {
  const auto build = [](const PlanOptions& opts) {
    PlanBuilder pb;
    const PlanValId x = pb.Input(4, 8);
    const PlanValId r = pb.Relu(x);
    const PlanValId sc = pb.Scale(r, 2.0f);
    const PlanValId m = pb.Mul(sc, r);
    return pb.Build(pb.Sum(m), opts);
  };
  PlanOptions fuse;
  fuse.fuse_elementwise = true;
  const ExecutionPlan fused = build(fuse);
  const ExecutionPlan ref = build(PlanOptions::Reference());

  const Steps want = {{0, 2}, {2, 1}, {3, 1}};
  EXPECT_EQ(fused.ForwardSteps(), want);
  // `r` is consumed by the Mul outside its group: never elided.
  EXPECT_EQ(fused.num_elided_values(), 0u);

  Matrix in(4, 8);
  for (size_t i = 0; i < in.size(); ++i) {
    in.data()[i] = (i % 3 == 0 ? -1.0f : 1.0f) * 0.37f * float(i + 1);
  }
  PlanArena ra, fa;
  ref.Forward({}, in, ra);
  fused.Forward({}, in, fa);
  ExpectBitEqualScalar(fused.OutputScalar(fa), ref.OutputScalar(ra),
                       "aliased output");
}

// Relu -> MatMul -> Sigmoid: nothing fuses across the MatMul (its kernel
// and scratch_db staging are not part of any elementwise sweep); every
// step stays a singleton.
TEST(PlanFusionTest, NoFusionAcrossMatMul) {
  PlanBuilder pb;
  const PlanValId x = pb.Input(4, 8);
  const PlanValId w = pb.Param(0, 8, 8);
  const PlanValId r = pb.Relu(x);
  const PlanValId y = pb.MatMul(r, w);
  const PlanValId sg = pb.Sigmoid(y);
  PlanOptions fuse;
  fuse.fuse_elementwise = true;
  const ExecutionPlan plan = pb.Build(pb.Sum(sg), fuse);

  const Steps want = {{0, 1}, {1, 1}, {2, 1}, {3, 1}};
  EXPECT_EQ(plan.ForwardSteps(), want);
  EXPECT_EQ(plan.num_elided_values(), 0u);
}

// MatMul -> Scale -> AddScalar -> Scale -> Sum. The two interior values of
// the [Scale, AddScalar, Scale] group are observed by nothing — their
// consumers are in-group and none of Scale/AddScalar's backwards read a
// forward value — so both writes are elided; the group's final value feeds
// the Sum and stays materialized. Gradients still flow through the group
// (grad buffers are independent of elision) and must match the reference
// bitwise.
TEST(PlanFusionTest, ElidesUnobservedInteriorWrites) {
  const auto build = [](const PlanOptions& opts) {
    PlanBuilder pb;
    const PlanValId x = pb.Input(3, 8);
    const PlanValId w = pb.Param(0, 8, 8);
    const PlanValId h = pb.MatMul(x, w);
    const PlanValId a = pb.Scale(h, 2.0f);
    const PlanValId b = pb.AddScalar(a, 1.0f);
    const PlanValId c = pb.Scale(b, 3.0f);
    return pb.Build(pb.Sum(c), opts);
  };
  PlanOptions fuse;
  fuse.fuse_elementwise = true;
  const ExecutionPlan fused = build(fuse);
  const ExecutionPlan ref = build(PlanOptions::Reference());

  const Steps want = {{0, 1}, {1, 3}, {4, 1}};
  EXPECT_EQ(fused.ForwardSteps(), want);
  EXPECT_EQ(fused.num_elided_values(), 2u);
  EXPECT_EQ(ref.num_elided_values(), 0u);

  Matrix in(3, 8);
  std::vector<float> params(64);
  for (size_t i = 0; i < in.size(); ++i) in.data()[i] = 0.11f * float(i) - 1.0f;
  for (size_t i = 0; i < params.size(); ++i) {
    params[i] = (i % 2 ? -1.0f : 1.0f) * 0.05f * float(i + 1);
  }
  PlanArena ra, fa;
  std::vector<float> rg(64, 42.0f), fg(64, -42.0f);
  ref.Forward(params, in, ra);
  fused.Forward(params, in, fa);
  ExpectBitEqualScalar(fused.OutputScalar(fa), ref.OutputScalar(ra), "loss");
  ref.Backward(params, in, ra, rg);
  fused.Backward(params, in, fa, fg);
  ExpectBitEqual(fg, rg, "gradients through elided group");
}

// A run longer than kMaxFuseLen splits: 10 chained AddScalars become one
// full group of 8 and one of 2.
TEST(PlanFusionTest, SplitsRunsLongerThanMaxFuseLen) {
  PlanBuilder pb;
  PlanValId v = pb.Input(2, 4);
  for (int i = 0; i < 10; ++i) v = pb.AddScalar(v, 0.125f);
  PlanOptions fuse;
  fuse.fuse_elementwise = true;
  const ExecutionPlan plan = pb.Build(pb.Sum(v), fuse);

  const Steps want = {{0, 8}, {8, 2}, {10, 1}};
  EXPECT_EQ(plan.ForwardSteps(), want);
  // Interior values of both groups are unobserved (AddScalar's backward
  // reads no forward value): 7 + 1 elisions.
  EXPECT_EQ(plan.num_elided_values(), 8u);
}

// Steady-state determinism of the OPTIMIZED path: a fused + SIMD plan
// re-executed on its warm arena reproduces its own first run bitwise —
// same guarantee the trainer and server rely on for reproducible runs,
// independent of the (tolerance-pinned) agreement with the reference.
TEST(PlanFusionTest, FusedSimdPlanWarmArenaBitStable) {
  for (GnnType type : {GnnType::kGrat, GnnType::kGcn}) {
    SCOPED_TRACE(GnnTypeName(type));
    const TrainingSetup s = MakeSetup(17, 4000);
    const GnnModel model = MakeModel(type, 4001);
    const std::vector<float> params = FlatParams(model);
    const GnnPlan plan = CompileTrainingPlan(model, s.ctx, s.loss_cfg,
                                             PlanOptions::Native());
    ASSERT_TRUE(plan.fused());

    const size_t dim = params.size();
    PlanArena arena;
    std::vector<float> g1(dim, 1.0f), g2(dim, 2.0f);
    plan.Forward(params, s.features, arena);
    const float loss1 = plan.OutputScalar(arena);
    plan.Backward(params, s.features, arena, g1);
    for (int rep = 0; rep < 3; ++rep) {
      plan.Forward(params, s.features, arena);
      ExpectBitEqualScalar(plan.OutputScalar(arena), loss1, "warm loss");
      plan.Backward(params, s.features, arena, g2);
      ExpectBitEqual(g2, g1, "warm gradients");
    }
  }
}

// The arena is laid out as activations + forward scratch, then gradient
// buffers, then backward scratch: Forward sizes only the prefix, so
// inference (snapshot builds, evaluation) never allocates gradient
// storage. A Backward that follows on the same arena grows it in place and
// must match a Forward + Backward on a pre-grown arena bit for bit.
TEST(PlanFusionTest, ForwardOnlyArenaHoldsNoGradientBuffers) {
  for (GnnType type : {GnnType::kGrat, GnnType::kGin}) {
    for (const PlanOptions& opts :
         {PlanOptions::Reference(), PlanOptions::Native()}) {
      SCOPED_TRACE(GnnTypeName(type) +
                   (opts.fuse_elementwise ? " native" : " reference"));
      const TrainingSetup s = MakeSetup(17, 5000);
      const GnnModel model = MakeModel(type, 5001);
      const std::vector<float> params = FlatParams(model);
      const GnnPlan plan =
          CompileTrainingPlan(model, s.ctx, s.loss_cfg, opts);
      ASSERT_LT(plan.forward_arena_size(), plan.arena_size());

      PlanArena fresh;
      plan.Forward(params, s.features, fresh);
      EXPECT_EQ(fresh.f.size(), plan.forward_arena_size());
      const float loss = plan.OutputScalar(fresh);
      std::vector<float> grown_grads(params.size());
      plan.Backward(params, s.features, fresh, grown_grads);
      EXPECT_EQ(fresh.f.size(), plan.arena_size());

      PlanArena pregrown;
      pregrown.f.assign(plan.arena_size(), 7.0f);
      std::vector<float> grads(params.size());
      plan.Forward(params, s.features, pregrown);
      ExpectBitEqualScalar(plan.OutputScalar(pregrown), loss, "loss");
      plan.Backward(params, s.features, pregrown, grads);
      ExpectBitEqual(grown_grads, grads, "gradients");
    }
  }
}

}  // namespace
}  // namespace privim
