#include "nn/param_store.h"

#include <cmath>

#include <gtest/gtest.h>

namespace privim {
namespace {

TEST(ParamStoreTest, TracksScalarCount) {
  ParamStore store;
  Rng rng(1);
  store.NewGlorot("w1", 3, 4, rng);
  const ParamEntry b1 = store.NewConstant("b1", 1, 4, 0.0f);
  EXPECT_EQ(store.num_tensors(), 2u);
  EXPECT_EQ(store.num_scalars(), 16u);
  EXPECT_EQ(store.entries()[0].name, "w1");
  // Entries are laid out back to back in creation order.
  EXPECT_EQ(store.entries()[0].offset, 0u);
  EXPECT_EQ(b1.offset, 12u);
  EXPECT_EQ(store.entries()[1].offset, 12u);
}

TEST(ParamStoreTest, GlorotBoundsRespected) {
  ParamStore store;
  Rng rng(2);
  const ParamEntry w = store.NewGlorot("w", 50, 50, rng);
  const std::span<const float> v = store.values().subspan(w.offset, w.size());
  const double bound = std::sqrt(6.0 / 100.0);
  for (float x : v) EXPECT_LE(std::abs(x), bound);
  // Not all identical (sanity).
  EXPECT_NE(v[0], v[51]);
}

TEST(ParamStoreTest, FlattenRoundTrip) {
  ParamStore store;
  Rng rng(3);
  store.NewGlorot("a", 2, 2, rng);
  store.NewGlorot("b", 1, 3, rng);
  std::vector<float> flat(store.num_scalars());
  store.FlattenParams(flat);
  std::vector<float> modified = flat;
  for (float& v : modified) v += 1.0f;
  store.LoadParams(modified);
  std::vector<float> readback(store.num_scalars());
  store.FlattenParams(readback);
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_FLOAT_EQ(readback[i], flat[i] + 1.0f);
  }
}

TEST(ParamStoreTest, FlattenGradsAfterBackward) {
  // A plan binds parameters at their store offsets, and Backward writes
  // each gradient at the same offset of the flat gradient span.
  ParamStore store;
  store.NewConstant("unused", 1, 2, 1.0f);
  const ParamEntry w = store.NewConstant("w", 2, 2, 1.0f);
  PlanBuilder pb;
  const ExecutionPlan plan = pb.Build(pb.Sum(pb.Scale(w.Bind(pb), 3.0f)));
  PlanArena arena;
  std::vector<float> grads(store.num_scalars());
  plan.Forward(store.values(), Matrix(), arena);
  plan.Backward(store.values(), Matrix(), arena, grads);
  EXPECT_FLOAT_EQ(grads[0], 0.0f);
  EXPECT_FLOAT_EQ(grads[1], 0.0f);
  for (size_t i = w.offset; i < w.offset + w.size(); ++i) {
    EXPECT_FLOAT_EQ(grads[i], 3.0f);
  }
}

TEST(ParamStoreTest, ZeroGradsClears) {
  // Backward zeroes the gradient span before accumulating, so a stale or
  // repeated gradient never leaks into the next per-sample pass.
  ParamStore store;
  const ParamEntry w = store.NewConstant("w", 1, 2, 1.0f);
  PlanBuilder pb;
  const ExecutionPlan plan = pb.Build(pb.Sum(w.Bind(pb)));
  PlanArena arena;
  std::vector<float> grads(store.num_scalars(), 42.0f);
  for (int pass = 0; pass < 2; ++pass) {
    plan.Forward(store.values(), Matrix(), arena);
    plan.Backward(store.values(), Matrix(), arena, grads);
    for (float g : grads) EXPECT_FLOAT_EQ(g, 1.0f) << "pass " << pass;
  }
}

TEST(ParamStoreTest, ApplyUpdateSubtractsScaledDelta) {
  ParamStore store;
  store.NewConstant("w", 1, 2, 10.0f);
  std::vector<float> delta = {2.0f, 4.0f};
  store.ApplyUpdate(delta, 0.5f);
  std::vector<float> flat(2);
  store.FlattenParams(flat);
  EXPECT_FLOAT_EQ(flat[0], 9.0f);
  EXPECT_FLOAT_EQ(flat[1], 8.0f);
}

TEST(ParamStoreTest, UpdateAffectsLiveTensor) {
  // Layers keep only a parameter's entry; an update must be visible to a
  // plan that binds it through that entry.
  ParamStore store;
  const ParamEntry w = store.NewConstant("w", 1, 1, 5.0f);
  PlanBuilder pb;
  const ExecutionPlan plan = pb.Build(pb.Sum(w.Bind(pb)));
  std::vector<float> delta = {1.0f};
  store.ApplyUpdate(delta, 1.0f);
  PlanArena arena;
  plan.Forward(store.values(), Matrix(), arena);
  EXPECT_FLOAT_EQ(plan.OutputScalar(arena), 4.0f);
}

}  // namespace
}  // namespace privim
