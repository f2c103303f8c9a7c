#ifndef PRIVIM_TENSOR_KERNELS_H_
#define PRIVIM_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace privim {
namespace simd {

/// Vectorized inner-loop kernels for the plan executor (tensor/plan.cc),
/// with runtime CPUID dispatch.
///
/// Three tiers are always compiled: scalar (an exact transcription of the
/// reference loops of PlanOptions::Reference() plans), AVX2 (8-lane
/// float) and AVX-512 (16-lane float, masked remainders). The AVX tiers
/// live in their own translation units (kernels_avx2.cc / kernels_avx512.cc)
/// built with per-file -m flags so nothing else in the binary is compiled
/// for a microarchitecture the host may lack; their entry points are only
/// reachable through `GetKernels`, which clamps to what the CPU reports.
///
/// Numerics contract (pinned by tests/tensor/kernel_diff_test.cc):
///  - gather_rows:          bit-identical to scalar (pure row copies).
///  - gather_rows_grad:     bit-identical (same per-element add order).
///  - scatter_add_rows{,_grad}, weighted_scatter_add_rows and the dx half
///    of its grad: per-element mul-then-add in the same edge order as
///    scalar, so each accumulation step rounds identically — within 1 ULP
///    per contributing edge (and in practice bit-identical when the scalar
///    build does not contract to FMA).
///  - matmul / matmul_da / matmul_db and the dalpha half of
///    weighted_scatter_add_rows_grad: use FMA and/or vectorized
///    reductions, so results differ from scalar by a bounded forward
///    error; the harness checks both against a double-precision reference
///    with a sum-of-|terms| bound.
/// Every kernel is a pure function of its arguments — no globals, no
/// allocation — so plans stay deterministic and allocation-free.
enum class Isa : uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* IsaName(Isa isa);

/// Best tier that is both compiled into this binary and supported by the
/// running CPU (CPUID). Computed once.
Isa MaxSupportedIsa();

/// `MaxSupportedIsa()` clamped by the PRIVIM_FORCE_ISA environment
/// variable ("scalar" | "avx2" | "avx512", case-insensitive). Forcing a
/// tier above what the hardware supports clamps down, never up; unknown
/// values warn once and are ignored. Read per call so tests can flip it.
Isa ResolveIsa();

/// One dispatch table of inner-loop kernels. All matrices are dense
/// row-major float. Kernels that produce a whole buffer (matmul,
/// matmul_db, the scatter forwards) zero-fill it first, matching the
/// plan executor's reference semantics; grad kernels accumulate (+=).
struct Kernels {
  Isa isa;

  /// out[m,n] = a[m,k] * b[k,n] (zero-fills out).
  void (*matmul)(const float* a, const float* b, float* out, size_t m,
                 size_t k, size_t n);
  /// ag[m,k] += g[m,n] * b[k,n]^T — one locally accumulated dot per entry,
  /// added once.
  void (*matmul_da)(const float* g, const float* b, float* ag, size_t m,
                    size_t k, size_t n);
  /// s[k,n] = a[m,k]^T * g[m,n] (zero-fills s). The caller folds s into
  /// the parameter gradient (staged-then-added accumulation order).
  void (*matmul_db)(const float* a, const float* g, float* s, size_t m,
                    size_t k, size_t n);

  /// out[i,:] = x[idx[i],:] for i < n_idx.
  void (*gather_rows)(const float* x, const uint32_t* idx, size_t n_idx,
                      size_t cols, float* out);
  /// ag[idx[i],:] += g[i,:] in index order.
  void (*gather_rows_grad)(const float* g, const uint32_t* idx, size_t n_idx,
                           size_t cols, float* ag);

  /// out = 0; out[dst[e],:] += coef[e] * x[src[e],:] in edge order.
  /// out_size = out_rows * cols.
  void (*scatter_add_rows)(const float* x, const uint32_t* src,
                           const uint32_t* dst, const float* coef,
                           size_t n_edges, size_t cols, float* out,
                           size_t out_size);
  /// ag[src[e],:] += coef[e] * g[dst[e],:] in edge order.
  void (*scatter_add_rows_grad)(const float* g, const uint32_t* src,
                                const uint32_t* dst, const float* coef,
                                size_t n_edges, size_t cols, float* ag);

  /// out = 0; out[dst[e],:] += alpha[e] * x[src[e],:] in edge order.
  void (*weighted_scatter_add_rows)(const float* alpha, const float* x,
                                    const uint32_t* src, const uint32_t* dst,
                                    size_t n_edges, size_t cols, float* out,
                                    size_t out_size);
  /// Per edge e, in order: if dalpha, dalpha[e] += dot(g[dst[e],:],
  /// x[src[e],:]) accumulated in double; if dx, dx[src[e],:] +=
  /// alpha[e] * g[dst[e],:]. Either output may be null.
  void (*weighted_scatter_add_rows_grad)(const float* alpha, const float* x,
                                         const float* g, const uint32_t* src,
                                         const uint32_t* dst, size_t n_edges,
                                         size_t cols, float* dalpha,
                                         float* dx);
};

/// The table for `isa`, clamped to `MaxSupportedIsa()` — requesting a tier
/// the CPU (or the build) lacks silently falls back to the next lower one,
/// so the returned table is always safe to execute. The returned
/// reference is to static storage and valid forever.
const Kernels& GetKernels(Isa isa);

/// Tier tables as compiled. Null when the translation unit was built
/// without the matching -m flags (non-x86 hosts). Use `GetKernels` —
/// these exist for the dispatcher and the differential test harness.
const Kernels& ScalarKernels();
const Kernels* Avx2KernelsOrNull();
const Kernels* Avx512KernelsOrNull();

}  // namespace simd
}  // namespace privim

#endif  // PRIVIM_TENSOR_KERNELS_H_
