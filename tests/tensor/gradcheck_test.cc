// Finite-difference gradient checks for every differentiable plan op. This
// is the load-bearing test for the execution engine: if these pass, the
// backward schedule of ExecutionPlan differentiates correctly, and the GNN
// layers and the DP trainer built on it do too. Each case runs on the
// Reference plan and on the Native (fused + SIMD) plan
// (plan_test::CheckGradient).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "plan_test_util.h"

namespace privim {
namespace {

using plan_test::CheckGradient;
using plan_test::RandomMatrix;
using Ids = std::vector<PlanValId>;

TEST(GradCheck, MatMulLeft) {
  Rng rng(1);
  const std::vector<Matrix> leaves{RandomMatrix(3, 4, rng),
                                   RandomMatrix(4, 2, rng)};
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.MatMul(l[0], l[1]));
  });
}

TEST(GradCheck, MatMulRight) {
  Rng rng(2);
  const std::vector<Matrix> leaves{RandomMatrix(3, 4, rng),
                                   RandomMatrix(4, 2, rng)};
  CheckGradient(leaves, 1, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.MatMul(l[0], l[1]));
  });
}

TEST(GradCheck, AddSubMul) {
  Rng rng(3);
  const Matrix other = RandomMatrix(2, 3, rng);
  const std::vector<Matrix> leaves{RandomMatrix(2, 3, rng), other};
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Add(l[0], l[1]));
  });
  // other - x, as other + (-1) * x.
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Add(l[1], pb.Scale(l[0], -1.0f)));
  });
  const auto product = [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Mul(l[0], l[1]));
  };
  CheckGradient(leaves, 0, product);
  CheckGradient(leaves, 1, product);
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Mul(l[0], l[0]));
  });
}

TEST(GradCheck, DiamondGraphAccumulatesBothPaths) {
  // loss = sum(x + x): both operands are the same value, so backward must
  // accumulate both paths — gradient 2 per entry, not 1.
  const std::vector<Matrix> leaves{Matrix::Ones(2, 1)};
  const auto diamond = [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Add(l[0], l[0]));
  };
  const Matrix g = plan_test::Grads(leaves, diamond)[0];
  EXPECT_FLOAT_EQ(g(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(g(1, 0), 2.0f);
  CheckGradient(leaves, 0, diamond);
}

TEST(GradCheck, AddRowBroadcastBias) {
  Rng rng(4);
  const std::vector<Matrix> leaves{RandomMatrix(3, 2, rng),
                                   RandomMatrix(1, 2, rng)};
  CheckGradient(leaves, 1, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.AddRowBroadcast(l[0], l[1]));
  });
}

TEST(GradCheck, ScaleAndAddScalar) {
  Rng rng(5);
  const std::vector<Matrix> leaves{RandomMatrix(2, 2, rng)};
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Scale(l[0], -2.5f));
  });
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.AddScalar(l[0], 3.0f));
  });
}

TEST(GradCheck, ScaleByScalarBothInputs) {
  Rng rng(6);
  const std::vector<Matrix> leaves{RandomMatrix(2, 3, rng),
                                   Matrix::FromRows({{0.7f}})};
  const auto scaled = [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.ScaleByScalar(l[0], l[1]));
  };
  CheckGradient(leaves, 0, scaled);
  CheckGradient(leaves, 1, scaled);
}

TEST(GradCheck, ConcatCols) {
  Rng rng(7);
  const std::vector<Matrix> leaves{RandomMatrix(3, 2, rng),
                                   RandomMatrix(3, 3, rng)};
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.ConcatCols(l[0], l[1]));
  });
  CheckGradient(leaves, 1, [](PlanBuilder& pb, const Ids& l) {
    // Weighted sum so columns get distinct gradients.
    const PlanValId cat = pb.ConcatCols(l[0], l[1]);
    return pb.Sum(pb.Mul(cat, cat));
  });
}

TEST(GradCheck, SmoothActivations) {
  Rng rng(8);
  const std::vector<Matrix> leaves{RandomMatrix(2, 3, rng, 0.3, 2.0)};
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Sigmoid(l[0]));
  });
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.InfluenceProb(l[0]));
  });
}

TEST(GradCheck, PiecewiseActivationsAwayFromKink) {
  Rng rng(9);
  // Keep values away from 0 so finite differences are valid.
  Matrix m = RandomMatrix(2, 3, rng);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] += (m.data()[i] >= 0 ? 0.5f : -0.5f);
  }
  const std::vector<Matrix> leaves{m};
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.Relu(l[0]));
  });
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.Sum(pb.LeakyRelu(l[0], 0.2f));
  });
}

TEST(GradCheck, Reductions) {
  Rng rng(10);
  const std::vector<Matrix> leaves{RandomMatrix(3, 3, rng),
                                   Matrix::Ones(3, 1)};
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    return pb.MeanAll(l[0]);
  });
  CheckGradient(leaves, 0, [](PlanBuilder& pb, const Ids& l) {
    // Row sums (x * ones), squared: a nonuniform downstream gradient.
    const PlanValId rs = pb.MatMul(l[0], l[1]);
    return pb.Sum(pb.Mul(rs, rs));
  });
}

TEST(GradCheck, GatherRows) {
  Rng rng(11);
  const std::vector<Matrix> leaves{RandomMatrix(4, 2, rng)};
  const std::vector<uint32_t> idx{3, 0, 0, 2};
  CheckGradient(leaves, 0, [&](PlanBuilder& pb, const Ids& l) {
    const PlanValId gathered = pb.GatherRows(l[0], idx);
    return pb.Sum(pb.Mul(gathered, gathered));
  });
}

TEST(GradCheck, ScatterAddRows) {
  Rng rng(12);
  const std::vector<Matrix> leaves{RandomMatrix(3, 2, rng)};
  const std::vector<uint32_t> src{0, 1, 2, 0};
  const std::vector<uint32_t> dst{1, 0, 1, 2};
  const std::vector<float> coef{0.5f, 1.5f, -0.5f, 2.0f};
  CheckGradient(leaves, 0, [&](PlanBuilder& pb, const Ids& l) {
    const PlanValId y = pb.ScatterAddRows(l[0], src, dst, coef, 3);
    return pb.Sum(pb.Mul(y, y));
  });
}

TEST(GradCheck, WeightedScatterAddBothInputs) {
  Rng rng(13);
  const std::vector<uint32_t> src{0, 1, 2, 1};
  const std::vector<uint32_t> dst{1, 2, 0, 0};
  const Matrix x = RandomMatrix(3, 2, rng);
  const std::vector<Matrix> leaves{RandomMatrix(4, 1, rng, 0.1, 1.0), x};
  const auto weighted = [&](PlanBuilder& pb, const Ids& l) {
    const PlanValId y = pb.WeightedScatterAddRows(l[0], l[1], src, dst, 3);
    return pb.Sum(pb.Mul(y, y));
  };
  CheckGradient(leaves, 1, weighted);
  CheckGradient(leaves, 0, weighted);
}

TEST(GradCheck, SegmentSoftmax) {
  Rng rng(14);
  const std::vector<Matrix> leaves{RandomMatrix(5, 1, rng)};
  const std::vector<uint32_t> group{0, 0, 1, 1, 1};
  CheckGradient(leaves, 0, [&](PlanBuilder& pb, const Ids& l) {
    const PlanValId alpha = pb.SegmentSoftmax(l[0], group, 2);
    return pb.Sum(pb.Mul(alpha, alpha));  // Non-degenerate downstream grad.
  });
}

TEST(GradCheck, ComposedAttentionLikePipeline) {
  // End-to-end mini-GAT: scores -> softmax -> weighted scatter -> loss.
  Rng rng(15);
  const std::vector<uint32_t> src{0, 1, 2, 2};
  const std::vector<uint32_t> dst{1, 2, 0, 1};
  const std::vector<Matrix> leaves{RandomMatrix(3, 2, rng),
                                   RandomMatrix(2, 2, rng),
                                   Matrix::Ones(2, 1)};
  const auto pipeline = [&](PlanBuilder& pb, const Ids& l) {
    const PlanValId xw = pb.MatMul(l[0], l[1]);
    const PlanValId row_sum = pb.MatMul(xw, l[2]);
    const PlanValId scores = pb.LeakyRelu(
        pb.Add(pb.GatherRows(row_sum, src), pb.GatherRows(row_sum, dst)),
        0.2f);
    const PlanValId alpha = pb.SegmentSoftmax(scores, dst, 3);
    const PlanValId out = pb.WeightedScatterAddRows(alpha, xw, src, dst, 3);
    return pb.Sum(pb.Mul(out, out));
  };
  CheckGradient(leaves, 0, pipeline);
  CheckGradient(leaves, 1, pipeline);
}

TEST(PlanDeathTest, BackwardRequiresScalarOutput) {
  // Backward seeds d(output)/d(output) = 1, which only means something for
  // a [1,1] output.
  const plan_test::LeafPlan lp(
      {Matrix::Ones(2, 2)},
      [](PlanBuilder& pb, const Ids& l) { return pb.Relu(l[0]); });
  PlanArena arena;
  std::vector<float> grads(lp.params.size());
  lp.plan.Forward(lp.params, Matrix(), arena);
  EXPECT_DEATH(lp.plan.Backward(lp.params, Matrix(), arena, grads), "");
}

}  // namespace
}  // namespace privim
