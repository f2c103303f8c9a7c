#include "tensor/matrix.h"

namespace privim {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    PRIVIM_CHECK_EQ(rows[r].size(), m.cols());
    for (size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

}  // namespace privim
