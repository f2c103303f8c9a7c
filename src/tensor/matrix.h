#ifndef PRIVIM_TENSOR_MATRIX_H_
#define PRIVIM_TENSOR_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace privim {

/// Dense row-major float32 matrix — node features and other plan inputs.
///
/// Deliberately minimal: PrivIM's GNNs operate on subgraphs of at most a few
/// hundred nodes, so simple loops beat BLAS-call overhead and keep the
/// library dependency-free.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Zeros(size_t rows, size_t cols) {
    return Matrix(rows, cols, 0.0f);
  }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }
  /// Builds from a row-major initializer; all rows must have equal length.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    PRIVIM_CHECK_LT(r, rows_);
    PRIVIM_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    PRIVIM_CHECK_LT(r, rows_);
    PRIVIM_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Sum of all entries.
  double Sum() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace privim

#endif  // PRIVIM_TENSOR_MATRIX_H_
