// Hand-computed forward values of every plan op, each on a single-op
// Reference plan (tensor/plan.h).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "plan_test_util.h"

namespace privim {
namespace {

using plan_test::Eval;
using Ids = std::vector<PlanValId>;

TEST(OpsTest, MatMulForward) {
  const Matrix c = Eval({Matrix::FromRows({{1, 2}, {3, 4}}),
                         Matrix::FromRows({{5, 6}, {7, 8}})},
                        [](PlanBuilder& pb, const Ids& l) {
                          return pb.MatMul(l[0], l[1]);
                        });
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(OpsTest, AddSubMulForward) {
  const std::vector<Matrix> ab{Matrix::FromRows({{1, 2}}),
                               Matrix::FromRows({{10, 20}})};
  EXPECT_FLOAT_EQ(Eval(ab,
                       [](PlanBuilder& pb, const Ids& l) {
                         return pb.Add(l[0], l[1]);
                       })(0, 1),
                  22.0f);
  // b - a, as b + (-1) * a.
  EXPECT_FLOAT_EQ(Eval(ab,
                       [](PlanBuilder& pb, const Ids& l) {
                         return pb.Add(l[1], pb.Scale(l[0], -1.0f));
                       })(0, 0),
                  9.0f);
  EXPECT_FLOAT_EQ(Eval(ab,
                       [](PlanBuilder& pb, const Ids& l) {
                         return pb.Mul(l[0], l[1]);
                       })(0, 1),
                  40.0f);
}

TEST(OpsTest, AddRowBroadcastForward) {
  const Matrix y = Eval({Matrix::FromRows({{1, 2}, {3, 4}}),
                         Matrix::FromRows({{10, 20}})},
                        [](PlanBuilder& pb, const Ids& l) {
                          return pb.AddRowBroadcast(l[0], l[1]);
                        });
  EXPECT_FLOAT_EQ(y(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y(1, 1), 24.0f);
}

TEST(OpsTest, ScaleAndAddScalar) {
  const std::vector<Matrix> x{Matrix::FromRows({{2, -2}})};
  EXPECT_FLOAT_EQ(Eval(x,
                       [](PlanBuilder& pb, const Ids& l) {
                         return pb.Scale(l[0], -0.5f);
                       })(0, 0),
                  -1.0f);
  EXPECT_FLOAT_EQ(Eval(x,
                       [](PlanBuilder& pb, const Ids& l) {
                         return pb.AddScalar(l[0], 3.0f);
                       })(0, 1),
                  1.0f);
}

TEST(OpsTest, ScaleByScalarForward) {
  const Matrix y = Eval({Matrix::FromRows({{1, 2}}), Matrix(1, 1, 3.0f)},
                        [](PlanBuilder& pb, const Ids& l) {
                          return pb.ScaleByScalar(l[0], l[1]);
                        });
  EXPECT_FLOAT_EQ(y(0, 1), 6.0f);
}

TEST(OpsTest, ConcatColsForward) {
  const Matrix c = Eval({Matrix::FromRows({{1}, {2}}),
                         Matrix::FromRows({{3, 4}, {5, 6}})},
                        [](PlanBuilder& pb, const Ids& l) {
                          return pb.ConcatCols(l[0], l[1]);
                        });
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c(1, 2), 6.0f);
}

TEST(OpsTest, ActivationsForward) {
  const std::vector<Matrix> x{Matrix::FromRows({{-2, 0, 2}})};
  const Matrix r = Eval(
      x, [](PlanBuilder& pb, const Ids& l) { return pb.Relu(l[0]); });
  EXPECT_FLOAT_EQ(r(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r(0, 2), 2.0f);
  const Matrix lr = Eval(x, [](PlanBuilder& pb, const Ids& l) {
    return pb.LeakyRelu(l[0], 0.1f);
  });
  EXPECT_FLOAT_EQ(lr(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(lr(0, 2), 2.0f);
  const Matrix s = Eval(
      x, [](PlanBuilder& pb, const Ids& l) { return pb.Sigmoid(l[0]); });
  EXPECT_NEAR(s(0, 1), 0.5f, 1e-6);
  EXPECT_NEAR(s(0, 0) + s(0, 2), 1.0f, 1e-6);
}

TEST(OpsTest, InfluenceProbRangeAndMonotonicity) {
  const Matrix p = Eval({Matrix::FromRows({{-1, 0, 0.5, 1, 3, 10}})},
                        [](PlanBuilder& pb, const Ids& l) {
                          return pb.InfluenceProb(l[0]);
                        });
  // Range [0, 1).
  for (size_t c = 0; c < 6; ++c) {
    EXPECT_GE(p(0, c), 0.0f);
    EXPECT_LT(p(0, c), 1.0f);
  }
  EXPECT_FLOAT_EQ(p(0, 0), 0.0f);  // Negative input clamps to 0.
  EXPECT_FLOAT_EQ(p(0, 1), 0.0f);
  // Monotone increasing.
  for (size_t c = 2; c < 6; ++c) EXPECT_GT(p(0, c), p(0, c - 1));
  EXPECT_NEAR(p(0, 3), 1.0f - std::exp(-1.0f), 1e-6);
}

TEST(OpsTest, ReductionsForward) {
  const std::vector<Matrix> x{Matrix::FromRows({{1, 2}, {3, 4}}),
                              Matrix::Ones(2, 1)};
  EXPECT_FLOAT_EQ(Eval(x,
                       [](PlanBuilder& pb, const Ids& l) {
                         return pb.Sum(l[0]);
                       })(0, 0),
                  10.0f);
  EXPECT_FLOAT_EQ(Eval(x,
                       [](PlanBuilder& pb, const Ids& l) {
                         return pb.MeanAll(l[0]);
                       })(0, 0),
                  2.5f);
  // Row sums as x * ones.
  const Matrix rs = Eval(
      x, [](PlanBuilder& pb, const Ids& l) { return pb.MatMul(l[0], l[1]); });
  EXPECT_EQ(rs.rows(), 2u);
  EXPECT_FLOAT_EQ(rs(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(rs(1, 0), 7.0f);
}

TEST(OpsTest, GatherRowsForward) {
  const std::vector<uint32_t> idx{2, 0, 2};
  const Matrix g = Eval({Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}})},
                        [&](PlanBuilder& pb, const Ids& l) {
                          return pb.GatherRows(l[0], idx);
                        });
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_FLOAT_EQ(g(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(g(2, 1), 6.0f);
}

TEST(OpsTest, ScatterAddRowsForward) {
  // Edges: 0->1 (coef 2), 2->1 (coef 1), 1->0 (coef 0.5).
  const std::vector<uint32_t> src{0, 2, 1};
  const std::vector<uint32_t> dst{1, 1, 0};
  const std::vector<float> coef{2.0f, 1.0f, 0.5f};
  const Matrix y = Eval({Matrix::FromRows({{1, 0}, {0, 1}, {2, 2}})},
                        [&](PlanBuilder& pb, const Ids& l) {
                          return pb.ScatterAddRows(l[0], src, dst, coef, 3);
                        });
  EXPECT_FLOAT_EQ(y(1, 0), 2.0f * 1.0f + 1.0f * 2.0f);  // 4
  EXPECT_FLOAT_EQ(y(1, 1), 2.0f * 0.0f + 1.0f * 2.0f);  // 2
  EXPECT_FLOAT_EQ(y(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(y(2, 0), 0.0f);
}

TEST(OpsTest, WeightedScatterAddForwardMatchesConstantVersion) {
  const std::vector<uint32_t> src{0, 1};
  const std::vector<uint32_t> dst{1, 0};
  const std::vector<float> coef{0.5f, 2.0f};
  const std::vector<Matrix> leaves{Matrix::FromRows({{1, 2}, {3, 4}}),
                                   Matrix::FromRows({{0.5f}, {2.0f}})};
  const Matrix a = Eval(leaves, [&](PlanBuilder& pb, const Ids& l) {
    return pb.WeightedScatterAddRows(l[1], l[0], src, dst, 2);
  });
  const Matrix b = Eval(leaves, [&](PlanBuilder& pb, const Ids& l) {
    return pb.ScatterAddRows(l[0], src, dst, coef, 2);
  });
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(a(r, c), b(r, c));
  }
}

Matrix Softmax(const Matrix& scores, const std::vector<uint32_t>& group,
               size_t num_groups) {
  return Eval({scores}, [&](PlanBuilder& pb, const Ids& l) {
    return pb.SegmentSoftmax(l[0], group, num_groups);
  });
}

TEST(OpsTest, SegmentSoftmaxNormalizesPerGroup) {
  // Groups: edges {0,1} in group 0, edges {2,3,4} in group 1.
  const Matrix alpha = Softmax(Matrix::FromRows({{1}, {2}, {-1}, {0}, {1}}),
                               {0, 0, 1, 1, 1}, 2);
  EXPECT_NEAR(alpha(0, 0) + alpha(1, 0), 1.0f, 1e-6);
  EXPECT_NEAR(alpha(2, 0) + alpha(3, 0) + alpha(4, 0), 1.0f, 1e-6);
  // Larger score gets larger weight within its group.
  EXPECT_GT(alpha(1, 0), alpha(0, 0));
  EXPECT_GT(alpha(4, 0), alpha(2, 0));
}

TEST(OpsTest, SegmentSoftmaxStableForLargeScores) {
  const Matrix alpha = Softmax(Matrix::FromRows({{1000}, {1001}}), {0, 0}, 1);
  EXPECT_TRUE(std::isfinite(alpha(0, 0)));
  EXPECT_NEAR(alpha(0, 0) + alpha(1, 0), 1.0f, 1e-6);
}

TEST(OpsTest, SegmentSoftmaxEmptyGroupYieldsNoNan) {
  // Group 1 has no edges; group 0 gets everything.
  const Matrix alpha = Softmax(Matrix::FromRows({{0}, {0}}), {0, 0}, 2);
  EXPECT_NEAR(alpha(0, 0), 0.5f, 1e-6);
}

}  // namespace
}  // namespace privim
