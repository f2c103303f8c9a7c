#include "tensor/matrix.h"

#include <gtest/gtest.h>

namespace privim {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(m(r, c), 1.5f);
  }
  m(1, 2) = -4.0f;
  EXPECT_FLOAT_EQ(m(1, 2), -4.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], -4.0f);
}

TEST(MatrixTest, ZerosOnesFromRows) {
  EXPECT_EQ(Matrix::Zeros(2, 2).Sum(), 0.0);
  EXPECT_EQ(Matrix::Ones(3, 4).Sum(), 12.0);
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
}

TEST(MatrixTest, InPlaceOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(a.Sum(), 10.0);
  a.Fill(7.0f);
  EXPECT_FLOAT_EQ(a(1, 0), 7.0f);
  EXPECT_EQ(a.Sum(), 28.0);
}

}  // namespace
}  // namespace privim
