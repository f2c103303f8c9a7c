// Scalar kernel tier: the reference loops of PlanOptions::Reference()
// plans, which every other tier is compared against
// (tests/tensor/kernel_diff_test.cc). Loop structure, accumulation order,
// the zero-skip in the matmuls, and the float/double mixing are part of
// that contract. Keep this file free of -m microarchitecture flags so it
// rounds like the rest of the baseline build.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels.h"

namespace privim {
namespace simd {
namespace {

void MatMulScalar(const float* a, const float* b, float* out, size_t m,
                  size_t k, size_t n) {
  std::fill(out, out + m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = b + kk * n;
      float* orow = out + i * n;
      for (size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void MatMulDaScalar(const float* g, const float* b, float* ag, size_t m,
                    size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* grow = g + i * n;
    for (size_t j = 0; j < k; ++j) {
      const float* brow = b + j * n;
      float dot = 0.0f;
      for (size_t c = 0; c < n; ++c) dot += grow[c] * brow[c];
      ag[i * k + j] += dot;
    }
  }
}

void MatMulDbScalar(const float* a, const float* g, float* s, size_t m,
                    size_t k, size_t n) {
  std::fill(s, s + k * n, 0.0f);
  for (size_t r = 0; r < m; ++r) {
    const float* arow = a + r * k;
    const float* grow = g + r * n;
    for (size_t i = 0; i < k; ++i) {
      const float ari = arow[i];
      if (ari == 0.0f) continue;
      float* srow = s + i * n;
      for (size_t j = 0; j < n; ++j) srow[j] += ari * grow[j];
    }
  }
}

void GatherRowsScalar(const float* x, const uint32_t* idx, size_t n_idx,
                      size_t cols, float* out) {
  for (size_t i = 0; i < n_idx; ++i) {
    const float* src = x + idx[i] * cols;
    std::copy(src, src + cols, out + i * cols);
  }
}

void GatherRowsGradScalar(const float* g, const uint32_t* idx, size_t n_idx,
                          size_t cols, float* ag) {
  for (size_t i = 0; i < n_idx; ++i) {
    const float* grow = g + i * cols;
    float* arow = ag + idx[i] * cols;
    for (size_t c = 0; c < cols; ++c) arow[c] += grow[c];
  }
}

void ScatterAddRowsScalar(const float* x, const uint32_t* src,
                          const uint32_t* dst, const float* coef,
                          size_t n_edges, size_t cols, float* out,
                          size_t out_size) {
  std::fill(out, out + out_size, 0.0f);
  for (size_t e = 0; e < n_edges; ++e) {
    const float* xin = x + src[e] * cols;
    float* orow = out + dst[e] * cols;
    const float c = coef[e];
    for (size_t k = 0; k < cols; ++k) orow[k] += c * xin[k];
  }
}

void ScatterAddRowsGradScalar(const float* g, const uint32_t* src,
                              const uint32_t* dst, const float* coef,
                              size_t n_edges, size_t cols, float* ag) {
  for (size_t e = 0; e < n_edges; ++e) {
    const float* grow = g + dst[e] * cols;
    float* arow = ag + src[e] * cols;
    const float c = coef[e];
    for (size_t k = 0; k < cols; ++k) arow[k] += c * grow[k];
  }
}

void WeightedScatterAddRowsScalar(const float* alpha, const float* x,
                                  const uint32_t* src, const uint32_t* dst,
                                  size_t n_edges, size_t cols, float* out,
                                  size_t out_size) {
  std::fill(out, out + out_size, 0.0f);
  for (size_t e = 0; e < n_edges; ++e) {
    const float a = alpha[e];
    const float* xin = x + src[e] * cols;
    float* orow = out + dst[e] * cols;
    for (size_t k = 0; k < cols; ++k) orow[k] += a * xin[k];
  }
}

void WeightedScatterAddRowsGradScalar(const float* alpha, const float* x,
                                      const float* g, const uint32_t* src,
                                      const uint32_t* dst, size_t n_edges,
                                      size_t cols, float* dalpha, float* dx) {
  for (size_t e = 0; e < n_edges; ++e) {
    const float* grow = g + dst[e] * cols;
    const float* xin = x + src[e] * cols;
    if (dalpha != nullptr) {
      double dot = 0.0;
      for (size_t k = 0; k < cols; ++k) {
        dot += static_cast<double>(grow[k]) * xin[k];
      }
      dalpha[e] += static_cast<float>(dot);
    }
    if (dx != nullptr) {
      const float a = alpha[e];
      float* brow = dx + src[e] * cols;
      for (size_t k = 0; k < cols; ++k) brow[k] += a * grow[k];
    }
  }
}

}  // namespace

const Kernels& ScalarKernels() {
  static const Kernels k = {
      Isa::kScalar,
      &MatMulScalar,
      &MatMulDaScalar,
      &MatMulDbScalar,
      &GatherRowsScalar,
      &GatherRowsGradScalar,
      &ScatterAddRowsScalar,
      &ScatterAddRowsGradScalar,
      &WeightedScatterAddRowsScalar,
      &WeightedScatterAddRowsGradScalar,
  };
  return k;
}

}  // namespace simd
}  // namespace privim
