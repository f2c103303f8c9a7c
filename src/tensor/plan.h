#ifndef PRIVIM_TENSOR_PLAN_H_
#define PRIVIM_TENSOR_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace privim {

/// Compiled execution plans: the one execution engine for GNN forward and
/// backward passes.
///
/// A `PlanBuilder` records an op DAG as POD op descriptors over integer
/// value ids. `Build()` freezes it into an `ExecutionPlan`: a flat forward
/// schedule, a backward schedule (reverse post-order of a DFS from the
/// output), and a byte-exact arena layout for every activation, gradient,
/// and per-op scratch buffer.
///
/// Steady-state contract: once a `PlanArena` has been warmed (one
/// `Forward`+`Backward` round), repeated execution performs **zero heap
/// allocations** — every kernel reads and writes preallocated arena
/// regions, parameter values come from a caller-provided flat span, and
/// parameter gradients accumulate into a caller-provided flat span laid
/// out in `ParamStore` order.
///
/// Arena layout: activations, then the forward scratch of SegmentSoftmax,
/// then every gradient buffer, then the MatMul dB staging buffers.
/// `Forward` sizes only the prefix up to the forward scratch, so an
/// inference-only arena never holds gradient storage; `Backward` grows it
/// to the full layout.
///
/// Reference contract: plans built with `PlanOptions::Reference()` run the
/// scalar kernels unfused; they are the oracle every other configuration is
/// compared against (finite differences in tests/tensor/gradcheck_test.cc,
/// the tolerance contract of docs/performance.md for `Native()`).
///
/// Lifetime: a plan borrows the edge-index/coefficient vectors passed to
/// the graph ops (in practice the `GraphContext` it was compiled against)
/// and must not outlive them.

/// Id of a value node inside one PlanBuilder/ExecutionPlan. Negative means
/// "none".
using PlanValId = int32_t;

namespace plan_internal {

enum class OpKind : uint8_t {
  kMatMul,
  kAdd,
  kMul,
  kAddRowBroadcast,
  kScale,
  kAddScalar,
  kScaleByScalar,
  kConcatCols,
  kRelu,
  kLeakyRelu,
  kSigmoid,
  kInfluenceProb,
  kSum,
  kGatherRows,
  kScatterAddRows,
  kWeightedScatterAddRows,
  kSegmentSoftmax,
};

enum class SlotKind : uint8_t { kInput, kParam, kActivation };

constexpr size_t kNoScratch = static_cast<size_t>(-1);

/// One value in the DAG. Activations live in the arena; params and the
/// single input are bound per execution from caller-provided storage.
struct ValueNode {
  SlotKind slot = SlotKind::kActivation;
  uint32_t rows = 0;
  uint32_t cols = 0;
  bool requires_grad = false;
  /// Fusion write-elision: the value only ever flows register-to-register
  /// inside one fused group and nothing (forward consumer outside the
  /// group, backward value-read, the plan output) observes its buffer, so
  /// the sweep skips the store. Arena space is still reserved.
  bool elided = false;
  size_t param_offset = 0;          // kParam: offset into the flat spans.
  size_t val_off = kNoScratch;      // kActivation: value offset in arena.f.
  size_t grad_off = kNoScratch;     // kActivation + requires_grad only.
  int32_t op = -1;                  // Producing op (-1 for leaves).

  size_t size() const { return static_cast<size_t>(rows) * cols; }
};

/// One scheduled op. Edge-index pointers are borrowed from the vectors the
/// builder was given (the compiled-against GraphContext owns them).
struct Op {
  OpKind kind;
  PlanValId a = -1;
  PlanValId b = -1;
  PlanValId out = -1;
  float c0 = 0.0f;                   // Scale factor / LeakyReLU slope.
  const uint32_t* idx_a = nullptr;   // gather index / edge src / group.
  const uint32_t* idx_b = nullptr;   // edge dst.
  const float* coef = nullptr;       // constant per-edge coefficients.
  size_t n_idx = 0;                  // edge count.
  size_t n_groups = 0;               // segment-softmax group count.
  size_t scratch_f = kNoScratch;     // float scratch offset in arena.f.
  size_t scratch_d = kNoScratch;     // double scratch offset in arena.d.
  size_t scratch_db = kNoScratch;    // MatMul dB staging buffer in arena.f.
  /// Kernel tier for this op, selected at plan finalize time (Build):
  /// points at the scalar table unless the op is one of the vectorizable
  /// kinds, wide enough to profit, and the plan was built with a SIMD isa.
  const simd::Kernels* kern = nullptr;
};

/// One step of the fused forward schedule: `count` consecutive ops of the
/// original schedule. count == 1 executes the op as-is; count > 1 is an
/// elementwise group executed in a single sweep over the group's shape.
struct FusedStep {
  int32_t first_op = 0;
  int32_t count = 1;
};

/// Longest elementwise run one fused sweep will cover (stage descriptors
/// live on the executor's stack). Longer runs split into multiple groups.
constexpr int32_t kMaxFuseLen = 8;

}  // namespace plan_internal

/// Compiler-pass knobs for PlanBuilder::Build. The default —
/// `Reference()` — produces the scalar, unfused plan that serves as the
/// reference implementation. `Native()` turns on
/// elementwise fusion and the best SIMD tier the host supports
/// (tensor/kernels.h; override with PRIVIM_FORCE_ISA). Fusion alone keeps
/// bit-identity with the reference (the sweep applies the same scalar
/// arithmetic per element); SIMD paths are tolerance-pinned instead
/// (tests/tensor/kernel_diff_test.cc, docs/performance.md).
struct PlanOptions {
  bool fuse_elementwise = false;
  simd::Isa isa = simd::Isa::kScalar;

  static PlanOptions Reference() { return PlanOptions{}; }
  static PlanOptions Native();
};

/// Grow-only execution buffers for one concurrent executor of a plan
/// (trainer: one per worker slot). An arena can be shared by plans of
/// different shapes — `Forward` grows it to the plan's forward prefix,
/// `Backward` to its full layout, and neither ever shrinks it, so
/// alternating between the subgraph plans of a training batch stops
/// allocating once every plan has run once.
struct PlanArena {
  std::vector<float> f;
  std::vector<double> d;
};

class ExecutionPlan;

/// Records ops into a DAG and freezes them into an ExecutionPlan. Shapes
/// are validated with PRIVIM_CHECKs at build time (shape bugs are
/// programmer errors), so a compiled plan never shape-checks at execution
/// time.
class PlanBuilder {
 public:
  PlanBuilder() = default;

  /// Declares the single external input (e.g. the node-feature matrix).
  /// Bound per execution via ExecutionPlan::Forward's `input` argument.
  PlanValId Input(size_t rows, size_t cols);

  /// Declares a trainable parameter living at `offset` in the flat
  /// parameter span (ParamStore order). Gradients accumulate at the same
  /// offset of the flat gradient span.
  PlanValId Param(size_t offset, size_t rows, size_t cols);

  PlanValId MatMul(PlanValId a, PlanValId b);
  PlanValId Add(PlanValId a, PlanValId b);
  PlanValId Mul(PlanValId a, PlanValId b);
  PlanValId AddRowBroadcast(PlanValId x, PlanValId bias);
  PlanValId Scale(PlanValId x, float c);
  PlanValId AddScalar(PlanValId x, float c);
  PlanValId ScaleByScalar(PlanValId x, PlanValId s);
  PlanValId ConcatCols(PlanValId a, PlanValId b);
  PlanValId Relu(PlanValId x);
  PlanValId LeakyRelu(PlanValId x, float slope = 0.2f);
  PlanValId Sigmoid(PlanValId x);
  PlanValId InfluenceProb(PlanValId x);
  PlanValId Sum(PlanValId x);
  PlanValId MeanAll(PlanValId x);
  PlanValId GatherRows(PlanValId x, const std::vector<uint32_t>& index);
  PlanValId ScatterAddRows(PlanValId x, const std::vector<uint32_t>& src,
                           const std::vector<uint32_t>& dst,
                           const std::vector<float>& coef, size_t num_out);
  PlanValId WeightedScatterAddRows(PlanValId alpha, PlanValId x,
                                   const std::vector<uint32_t>& src,
                                   const std::vector<uint32_t>& dst,
                                   size_t num_out);
  PlanValId SegmentSoftmax(PlanValId scores,
                           const std::vector<uint32_t>& group,
                           size_t num_groups);

  /// Freezes the DAG with `output` as the root: lays out the arena,
  /// computes the backward schedule (reverse DFS post-order from
  /// `output`),
  /// runs the optimization passes selected by `opts` (elementwise fusion,
  /// per-op SIMD kernel selection), and returns the immutable plan. The
  /// builder is left in a moved-from state.
  ExecutionPlan Build(PlanValId output,
                      const PlanOptions& opts = PlanOptions());

 private:
  friend class ExecutionPlan;

  PlanValId AddValue(plan_internal::SlotKind slot, size_t rows, size_t cols,
                     bool requires_grad);
  PlanValId AddOp(plan_internal::Op op, size_t out_rows, size_t out_cols);
  const plan_internal::ValueNode& val(PlanValId id) const;

  std::vector<plan_internal::ValueNode> vals_;
  std::vector<plan_internal::Op> ops_;
  PlanValId input_ = -1;
};

/// An immutable compiled plan: run `Forward` (and optionally `Backward`)
/// any number of times against per-call parameter/input bindings and a
/// per-executor arena. Plans are derived state — cheap to recompile, never
/// serialized (checkpoints store parameters only).
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  bool compiled() const { return !ops_.empty() || output_ >= 0; }
  size_t num_ops() const { return ops_.size(); }
  /// Minimum length of the parameter (and gradient) spans.
  size_t num_param_scalars() const { return param_scalars_; }
  size_t output_rows() const;
  size_t output_cols() const;

  /// SIMD tier the plan's kernels were finalized against (after clamping
  /// to what the host supports). Reference plans report kScalar.
  simd::Isa isa() const { return isa_; }
  /// Whether the fusion pass ran (PlanOptions::fuse_elementwise).
  bool fused() const { return !steps_.empty(); }
  /// Forward schedule length after fusion (== num_ops() when unfused).
  size_t num_forward_steps() const {
    return steps_.empty() ? ops_.size() : steps_.size();
  }
  /// Values whose buffer writes the fusion pass elided.
  size_t num_elided_values() const;
  /// The fused schedule as (first op index, op count) pairs — singleton
  /// steps for an unfused plan. Introspection for the fusion-pass tests.
  std::vector<std::pair<int32_t, int32_t>> ForwardSteps() const;
  /// Floats of PlanArena::f that Forward needs (activations + forward
  /// scratch) and that Backward needs (the full layout).
  size_t forward_arena_size() const { return ffwd_; }
  size_t arena_size() const { return farena_; }

  /// Runs the forward schedule. `params` is the flat parameter vector
  /// (ParamStore order); `input` must match the declared input shape.
  /// Grows `arena` to forward_arena_size() on first use; allocation-free
  /// once warm.
  void Forward(std::span<const float> params, const Matrix& input,
               PlanArena& arena) const;

  /// Value of the output node after Forward (scalar plans: the loss).
  float OutputScalar(const PlanArena& arena) const;
  /// Flat row-major view of the output node's value after Forward.
  std::span<const float> Output(const PlanArena& arena) const;

  /// Runs the backward schedule from the output node (which must be 1x1).
  /// Zeroes `param_grads` and the arena gradient region first, then
  /// accumulates d(output)/d(param) into `param_grads`. Grows `arena` to
  /// arena_size(). `params`/`input`/`arena` must be the bindings of the
  /// immediately preceding Forward call.
  void Backward(std::span<const float> params, const Matrix& input,
                PlanArena& arena, std::span<float> param_grads) const;

 private:
  friend class PlanBuilder;

  void EnsureArena(PlanArena& arena, size_t floats) const;
  const float* ValPtr(PlanValId id, std::span<const float> params,
                      const Matrix& input, const PlanArena& arena) const;
  float* GradPtr(PlanValId id, std::span<float> param_grads,
                 PlanArena& arena) const;
  void ExecForwardOp(const plan_internal::Op& op,
                     std::span<const float> params, const Matrix& input,
                     PlanArena& arena) const;
  void ExecFusedGroup(const plan_internal::FusedStep& step,
                      std::span<const float> params, const Matrix& input,
                      PlanArena& arena) const;

  std::vector<plan_internal::ValueNode> vals_;
  std::vector<plan_internal::Op> ops_;       // Forward order.
  std::vector<plan_internal::FusedStep> steps_;  // Empty unless fused.
  std::vector<int32_t> backward_;            // Op ids, reverse post-order.
  simd::Isa isa_ = simd::Isa::kScalar;
  PlanValId output_ = -1;
  PlanValId input_id_ = -1;
  size_t ffwd_ = 0;
  size_t farena_ = 0;
  size_t darena_ = 0;
  size_t grads_off_ = 0;
  size_t grads_len_ = 0;
  size_t param_scalars_ = 0;
};

}  // namespace privim

#endif  // PRIVIM_TENSOR_PLAN_H_
