#ifndef PRIVIM_TESTS_TENSOR_PLAN_TEST_UTIL_H_
#define PRIVIM_TESTS_TENSOR_PLAN_TEST_UTIL_H_

// Helpers for testing compiled plans (tensor/plan.h) op by op: a small
// computation is recorded over "leaf" matrices, each bound as a plan Param
// so every leaf is differentiable, with all leaves packed back to back in
// one flat parameter vector.

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/plan.h"

namespace privim {
namespace plan_test {

/// Records the computation under test over the declared leaves and returns
/// the plan's output value id.
using Recorder =
    std::function<PlanValId(PlanBuilder&, const std::vector<PlanValId>&)>;

/// A plan compiled over `leaves`, plus the flat vector they are bound from.
struct LeafPlan {
  ExecutionPlan plan;
  std::vector<float> params;
  std::vector<size_t> offsets;  // Per leaf, into `params`.

  LeafPlan(const std::vector<Matrix>& leaves, const Recorder& record,
           const PlanOptions& opts = PlanOptions::Reference()) {
    PlanBuilder pb;
    std::vector<PlanValId> ids;
    for (const Matrix& m : leaves) {
      offsets.push_back(params.size());
      ids.push_back(pb.Param(params.size(), m.rows(), m.cols()));
      params.insert(params.end(), m.data(), m.data() + m.size());
    }
    plan = pb.Build(record(pb, ids), opts);
  }

  /// Output value after a forward pass on a fresh arena.
  Matrix Eval() const {
    PlanArena arena;
    plan.Forward(params, Matrix(), arena);
    Matrix out(plan.output_rows(), plan.output_cols());
    const std::span<const float> v = plan.Output(arena);
    std::copy(v.begin(), v.end(), out.data());
    return out;
  }

  /// Scalar output after a forward pass.
  double Scalar() const {
    PlanArena arena;
    plan.Forward(params, Matrix(), arena);
    return plan.OutputScalar(arena);
  }

  /// d(output)/d(leaf) for every leaf, from Forward + Backward.
  std::vector<Matrix> Grads(const std::vector<Matrix>& leaves) const {
    PlanArena arena;
    std::vector<float> flat(params.size());
    plan.Forward(params, Matrix(), arena);
    plan.Backward(params, Matrix(), arena, flat);
    std::vector<Matrix> out;
    for (size_t i = 0; i < leaves.size(); ++i) {
      Matrix g(leaves[i].rows(), leaves[i].cols());
      std::copy_n(flat.begin() + offsets[i], g.size(), g.data());
      out.push_back(std::move(g));
    }
    return out;
  }
};

/// Forward value of the recorded computation on a Reference plan.
inline Matrix Eval(const std::vector<Matrix>& leaves, const Recorder& record) {
  return LeafPlan(leaves, record).Eval();
}

/// Gradients of the recorded scalar computation on a Reference plan.
inline std::vector<Matrix> Grads(const std::vector<Matrix>& leaves,
                                 const Recorder& record) {
  return LeafPlan(leaves, record).Grads(leaves);
}

/// Compares ExecutionPlan::Backward's gradient with respect to
/// leaves[checked] against central finite differences of the [1,1] output,
/// on the Reference plan and on the Native (fused + SIMD) plan. The Native
/// gradient must also match the Reference one within the relative 2e-3 of
/// the docs/performance.md tolerance contract.
inline void CheckGradient(const std::vector<Matrix>& leaves, size_t checked,
                          const Recorder& record, double tol = 2e-2,
                          double eps = 1e-3) {
  std::vector<float> reference;
  for (const PlanOptions& opts :
       {PlanOptions::Reference(), PlanOptions::Native()}) {
    SCOPED_TRACE(opts.fuse_elementwise ? "native plan" : "reference plan");
    LeafPlan lp(leaves, record, opts);
    ASSERT_EQ(lp.plan.output_rows(), 1u);
    ASSERT_EQ(lp.plan.output_cols(), 1u);
    const Matrix analytic = lp.Grads(leaves)[checked];
    const size_t base = lp.offsets[checked];
    for (size_t i = 0; i < analytic.size(); ++i) {
      float& value = lp.params[base + i];
      const float orig = value;
      value = orig + static_cast<float>(eps);
      const double up = lp.Scalar();
      value = orig - static_cast<float>(eps);
      const double down = lp.Scalar();
      value = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic.data()[i], numeric,
                  tol * std::max(1.0, std::abs(numeric)))
          << "coordinate " << i;
    }
    if (reference.empty()) {
      reference.assign(analytic.data(), analytic.data() + analytic.size());
      continue;
    }
    for (size_t i = 0; i < analytic.size(); ++i) {
      EXPECT_NEAR(analytic.data()[i], reference[i],
                  2e-3 * std::max(1.0, std::abs(double{reference[i]})))
          << "native vs reference, coordinate " << i;
    }
  }
}

inline Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng,
                           double lo = -1.0, double hi = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return m;
}

}  // namespace plan_test
}  // namespace privim

#endif  // PRIVIM_TESTS_TENSOR_PLAN_TEST_UTIL_H_
