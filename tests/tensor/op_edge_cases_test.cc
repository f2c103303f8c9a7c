// Edge-case and stress tests for plan ops beyond the gradcheck suite:
// degenerate shapes, reuse of values in larger graphs, and parameterized
// shape sweeps, all on Reference plans.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "plan_test_util.h"

namespace privim {
namespace {

using plan_test::Eval;
using plan_test::Grads;
using plan_test::RandomMatrix;
using Ids = std::vector<PlanValId>;

struct Shape {
  size_t m, k, n;
};

class MatMulShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(MatMulShapeTest, AssociativityWithScalar) {
  // (c * A) * B == c * (A * B) — a cheap algebraic invariant exercising
  // all shape paths.
  const Shape s = GetParam();
  Rng rng(s.m * 100 + s.k * 10 + s.n);
  const std::vector<Matrix> ab{RandomMatrix(s.m, s.k, rng),
                               RandomMatrix(s.k, s.n, rng)};
  const Matrix lhs = Eval(ab, [](PlanBuilder& pb, const Ids& l) {
    return pb.MatMul(pb.Scale(l[0], 2.5f), l[1]);
  });
  const Matrix rhs = Eval(ab, [](PlanBuilder& pb, const Ids& l) {
    return pb.Scale(pb.MatMul(l[0], l[1]), 2.5f);
  });
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 8, 1}, Shape{5, 1, 7},
                      Shape{32, 8, 32}, Shape{64, 32, 1}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

TEST(OpEdgeCasesTest, SingleElementTensorThroughFullChain) {
  const Matrix g = Grads({Matrix(1, 1, 0.5f)},
                         [](PlanBuilder& pb, const Ids& l) {
                           return pb.Sum(pb.Sigmoid(
                               pb.Scale(pb.AddScalar(l[0], 1.0f), 2.0f)));
                         })[0];
  // d/dx sigmoid(2(x+1)) = 2 s(1-s) at 2*1.5=3.
  const double s = 1.0 / (1.0 + std::exp(-3.0));
  EXPECT_NEAR(g(0, 0), 2.0 * s * (1.0 - s), 1e-5);
}

TEST(OpEdgeCasesTest, GatherWithRepeatedIndicesAccumulates) {
  // Gather row 0 five times; its gradient must be 5x row 1's.
  const std::vector<uint32_t> idx{0, 0, 0, 0, 0, 1};
  const Matrix g = Grads({Matrix::Ones(2, 3)},
                         [&](PlanBuilder& pb, const Ids& l) {
                           return pb.Sum(pb.GatherRows(l[0], idx));
                         })[0];
  EXPECT_FLOAT_EQ(g(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g(1, 0), 1.0f);
}

TEST(OpEdgeCasesTest, ScatterWithNoEdgesYieldsZeros) {
  const std::vector<uint32_t> none;
  const std::vector<float> no_coef;
  const Matrix y = Eval({Matrix::Ones(3, 2)},
                        [&](PlanBuilder& pb, const Ids& l) {
                          return pb.ScatterAddRows(l[0], none, none, no_coef,
                                                   4);
                        });
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.Sum(), 0.0);
}

TEST(OpEdgeCasesTest, SegmentSoftmaxSingleEdgePerGroupIsOne) {
  const std::vector<uint32_t> group{0, 1, 2};
  const Matrix alpha = Eval({Matrix::FromRows({{-5.0f}, {100.0f}, {0.0f}})},
                            [&](PlanBuilder& pb, const Ids& l) {
                              return pb.SegmentSoftmax(l[0], group, 3);
                            });
  for (size_t e = 0; e < 3; ++e) EXPECT_NEAR(alpha(e, 0), 1.0f, 1e-6);
}

TEST(OpEdgeCasesTest, SharedSubexpressionGradientsAccumulateOnce) {
  // y = sum(h * h) where h = x*W used twice: backward must traverse h
  // once and accumulate both product paths.
  Rng rng(3);
  std::vector<Matrix> leaves{RandomMatrix(4, 3, rng), RandomMatrix(3, 2, rng)};
  const auto square = [](PlanBuilder& pb, const Ids& l) {
    const PlanValId h = pb.MatMul(l[0], l[1]);
    return pb.Sum(pb.Mul(h, h));
  };
  const Matrix g = Grads(leaves, square)[0];
  // Numeric check on one coordinate.
  const double eps = 1e-3;
  const float orig = leaves[0](1, 1);
  leaves[0](1, 1) = orig + static_cast<float>(eps);
  const double up = Eval(leaves, square)(0, 0);
  leaves[0](1, 1) = orig - static_cast<float>(eps);
  const double down = Eval(leaves, square)(0, 0);
  EXPECT_NEAR(g(1, 1), (up - down) / (2 * eps), 5e-2);
}

TEST(TensorTest, BackwardThroughSimpleChain) {
  // loss = sum(2 * x), d loss / d x = 2 everywhere.
  const Matrix g = Grads({Matrix::Ones(2, 2)},
                         [](PlanBuilder& pb, const Ids& l) {
                           return pb.Sum(pb.Scale(l[0], 2.0f));
                         })[0];
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(g(r, c), 2.0f);
    }
  }
}

TEST(TensorTest, DeepChainBackward) {
  // 60 chained scalings: gradient is 1.01^60.
  const Matrix g = Grads({Matrix::Ones(1, 1)},
                         [](PlanBuilder& pb, const Ids& l) {
                           PlanValId h = l[0];
                           for (int i = 0; i < 60; ++i) {
                             h = pb.Scale(h, 1.01f);
                           }
                           return pb.Sum(h);
                         })[0];
  EXPECT_NEAR(g(0, 0), std::pow(1.01, 60.0), 1e-3);
}

TEST(OpEdgeCasesTest, LargeGraphBackwardCompletes) {
  // A 200-layer elementwise chain with branches exercises the iterative
  // (non-recursive) DFS that builds the backward schedule.
  const Matrix g = Grads({Matrix::Ones(4, 4)},
                         [](PlanBuilder& pb, const Ids& l) {
                           PlanValId h = l[0];
                           for (int i = 0; i < 200; ++i) {
                             h = pb.Add(pb.Scale(h, 0.999f),
                                        pb.Scale(h, 0.001f));
                           }
                           return pb.Sum(h);
                         })[0];
  EXPECT_NEAR(g(0, 0), 1.0f, 1e-3);
}

TEST(OpEdgeCasesTest, InfluenceProbFlatForNegativeInputs) {
  const Matrix g = Grads({Matrix::FromRows({{-3.0f, -0.1f}})},
                         [](PlanBuilder& pb, const Ids& l) {
                           return pb.Sum(pb.InfluenceProb(l[0]));
                         })[0];
  EXPECT_FLOAT_EQ(g(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g(0, 1), 0.0f);
}

}  // namespace
}  // namespace privim
