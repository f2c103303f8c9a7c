#include "tensor/plan.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace privim {

using plan_internal::FusedStep;
using plan_internal::kMaxFuseLen;
using plan_internal::kNoScratch;
using plan_internal::Op;
using plan_internal::OpKind;
using plan_internal::SlotKind;
using plan_internal::ValueNode;

PlanOptions PlanOptions::Native() {
  PlanOptions o;
  o.fuse_elementwise = true;
  o.isa = simd::ResolveIsa();
  return o;
}

namespace {

// Ops the fusion pass may pull into one sweep: shape-preserving, pure
// per-element functions of at most one chained operand plus one
// broadcast/full operand.
bool IsElementwise(OpKind k) {
  switch (k) {
    case OpKind::kAdd:
    case OpKind::kMul:
    case OpKind::kAddRowBroadcast:
    case OpKind::kScale:
    case OpKind::kAddScalar:
    case OpKind::kScaleByScalar:
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kInfluenceProb:
      return true;
    default:
      return false;
  }
}

// Whether `k`'s backward pass reads the forward VALUE of its a (resp. b)
// operand — the write-elision analysis must keep such values materialized.
// Conservative where the read is conditional on the sibling's
// requires_grad (kMul, kMatMul).
bool BackwardReadsA(OpKind k) {
  switch (k) {
    case OpKind::kMatMul:
    case OpKind::kMul:
    case OpKind::kScaleByScalar:
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kInfluenceProb:
    case OpKind::kWeightedScatterAddRows:
      return true;
    default:
      return false;
  }
}

bool BackwardReadsB(OpKind k) {
  switch (k) {
    case OpKind::kMatMul:
    case OpKind::kMul:
    case OpKind::kScaleByScalar:
    case OpKind::kWeightedScatterAddRows:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanBuilder.
// ---------------------------------------------------------------------------

PlanValId PlanBuilder::AddValue(SlotKind slot, size_t rows, size_t cols,
                                bool requires_grad) {
  ValueNode v;
  v.slot = slot;
  v.rows = static_cast<uint32_t>(rows);
  v.cols = static_cast<uint32_t>(cols);
  v.requires_grad = requires_grad;
  vals_.push_back(v);
  return static_cast<PlanValId>(vals_.size() - 1);
}

PlanValId PlanBuilder::AddOp(Op op, size_t out_rows, size_t out_cols) {
  const bool rg = (op.a >= 0 && val(op.a).requires_grad) ||
                  (op.b >= 0 && val(op.b).requires_grad);
  const PlanValId out =
      AddValue(SlotKind::kActivation, out_rows, out_cols, rg);
  op.out = out;
  vals_[out].op = static_cast<int32_t>(ops_.size());
  ops_.push_back(op);
  return out;
}

const ValueNode& PlanBuilder::val(PlanValId id) const {
  PRIVIM_CHECK_GE(id, 0);
  PRIVIM_CHECK_LT(static_cast<size_t>(id), vals_.size());
  return vals_[id];
}

PlanValId PlanBuilder::Input(size_t rows, size_t cols) {
  PRIVIM_CHECK_EQ(input_, -1) << "plans take a single input";
  input_ = AddValue(SlotKind::kInput, rows, cols, /*requires_grad=*/false);
  return input_;
}

PlanValId PlanBuilder::Param(size_t offset, size_t rows, size_t cols) {
  const PlanValId id =
      AddValue(SlotKind::kParam, rows, cols, /*requires_grad=*/true);
  vals_[id].param_offset = offset;
  return id;
}

PlanValId PlanBuilder::MatMul(PlanValId a, PlanValId b) {
  PRIVIM_CHECK_EQ(val(a).cols, val(b).rows);
  Op op{OpKind::kMatMul};
  op.a = a;
  op.b = b;
  return AddOp(op, val(a).rows, val(b).cols);
}

PlanValId PlanBuilder::Add(PlanValId a, PlanValId b) {
  PRIVIM_CHECK_EQ(val(a).rows, val(b).rows);
  PRIVIM_CHECK_EQ(val(a).cols, val(b).cols);
  Op op{OpKind::kAdd};
  op.a = a;
  op.b = b;
  return AddOp(op, val(a).rows, val(a).cols);
}

PlanValId PlanBuilder::Mul(PlanValId a, PlanValId b) {
  PRIVIM_CHECK_EQ(val(a).rows, val(b).rows);
  PRIVIM_CHECK_EQ(val(a).cols, val(b).cols);
  Op op{OpKind::kMul};
  op.a = a;
  op.b = b;
  return AddOp(op, val(a).rows, val(a).cols);
}

PlanValId PlanBuilder::AddRowBroadcast(PlanValId x, PlanValId bias) {
  PRIVIM_CHECK_EQ(val(bias).rows, 1u);
  PRIVIM_CHECK_EQ(val(bias).cols, val(x).cols);
  Op op{OpKind::kAddRowBroadcast};
  op.a = x;
  op.b = bias;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::Scale(PlanValId x, float c) {
  Op op{OpKind::kScale};
  op.a = x;
  op.c0 = c;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::AddScalar(PlanValId x, float c) {
  Op op{OpKind::kAddScalar};
  op.a = x;
  op.c0 = c;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::ScaleByScalar(PlanValId x, PlanValId s) {
  PRIVIM_CHECK_EQ(val(s).rows, 1u);
  PRIVIM_CHECK_EQ(val(s).cols, 1u);
  Op op{OpKind::kScaleByScalar};
  op.a = x;
  op.b = s;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::ConcatCols(PlanValId a, PlanValId b) {
  PRIVIM_CHECK_EQ(val(a).rows, val(b).rows);
  Op op{OpKind::kConcatCols};
  op.a = a;
  op.b = b;
  return AddOp(op, val(a).rows,
               static_cast<size_t>(val(a).cols) + val(b).cols);
}

PlanValId PlanBuilder::Relu(PlanValId x) {
  Op op{OpKind::kRelu};
  op.a = x;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::LeakyRelu(PlanValId x, float slope) {
  Op op{OpKind::kLeakyRelu};
  op.a = x;
  op.c0 = slope;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::Sigmoid(PlanValId x) {
  Op op{OpKind::kSigmoid};
  op.a = x;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::InfluenceProb(PlanValId x) {
  Op op{OpKind::kInfluenceProb};
  op.a = x;
  return AddOp(op, val(x).rows, val(x).cols);
}

PlanValId PlanBuilder::Sum(PlanValId x) {
  Op op{OpKind::kSum};
  op.a = x;
  return AddOp(op, 1, 1);
}

PlanValId PlanBuilder::MeanAll(PlanValId x) {
  PRIVIM_CHECK_GT(val(x).size(), 0u);
  return Scale(Sum(x), 1.0f / static_cast<float>(val(x).size()));
}

PlanValId PlanBuilder::GatherRows(PlanValId x,
                                  const std::vector<uint32_t>& index) {
  for (uint32_t i : index) PRIVIM_CHECK_LT(i, val(x).rows);
  Op op{OpKind::kGatherRows};
  op.a = x;
  op.idx_a = index.data();
  op.n_idx = index.size();
  return AddOp(op, index.size(), val(x).cols);
}

PlanValId PlanBuilder::ScatterAddRows(PlanValId x,
                                      const std::vector<uint32_t>& src,
                                      const std::vector<uint32_t>& dst,
                                      const std::vector<float>& coef,
                                      size_t num_out) {
  PRIVIM_CHECK_EQ(src.size(), dst.size());
  PRIVIM_CHECK_EQ(src.size(), coef.size());
  for (size_t e = 0; e < src.size(); ++e) {
    PRIVIM_CHECK_LT(src[e], val(x).rows);
    PRIVIM_CHECK_LT(dst[e], num_out);
  }
  Op op{OpKind::kScatterAddRows};
  op.a = x;
  op.idx_a = src.data();
  op.idx_b = dst.data();
  op.coef = coef.data();
  op.n_idx = src.size();
  return AddOp(op, num_out, val(x).cols);
}

PlanValId PlanBuilder::WeightedScatterAddRows(
    PlanValId alpha, PlanValId x, const std::vector<uint32_t>& src,
    const std::vector<uint32_t>& dst, size_t num_out) {
  PRIVIM_CHECK_EQ(val(alpha).rows, src.size());
  PRIVIM_CHECK_EQ(val(alpha).cols, 1u);
  PRIVIM_CHECK_EQ(src.size(), dst.size());
  for (size_t e = 0; e < src.size(); ++e) {
    PRIVIM_CHECK_LT(src[e], val(x).rows);
    PRIVIM_CHECK_LT(dst[e], num_out);
  }
  Op op{OpKind::kWeightedScatterAddRows};
  op.a = alpha;
  op.b = x;
  op.idx_a = src.data();
  op.idx_b = dst.data();
  op.n_idx = src.size();
  return AddOp(op, num_out, val(x).cols);
}

PlanValId PlanBuilder::SegmentSoftmax(PlanValId scores,
                                      const std::vector<uint32_t>& group,
                                      size_t num_groups) {
  PRIVIM_CHECK_EQ(val(scores).cols, 1u);
  PRIVIM_CHECK_EQ(val(scores).rows, group.size());
  for (uint32_t g : group) PRIVIM_CHECK_LT(g, num_groups);
  Op op{OpKind::kSegmentSoftmax};
  op.a = scores;
  op.idx_a = group.data();
  op.n_idx = group.size();
  op.n_groups = num_groups;
  return AddOp(op, group.size(), 1);
}

ExecutionPlan PlanBuilder::Build(PlanValId output, const PlanOptions& opts) {
  PRIVIM_CHECK_GE(output, 0);
  PRIVIM_CHECK_LT(static_cast<size_t>(output), vals_.size());

  ExecutionPlan plan;
  plan.vals_ = std::move(vals_);
  plan.ops_ = std::move(ops_);
  plan.output_ = output;
  plan.input_id_ = input_;

  // Arena layout: activation values, then the forward scratch
  // (SegmentSoftmax's per-group max), which together are all Forward
  // touches; then every gradient buffer, contiguous so Backward zeroes them
  // with a single fill; then the backward-only MatMul dB staging buffers.
  size_t f_off = 0;
  for (ValueNode& v : plan.vals_) {
    if (v.slot == SlotKind::kActivation) {
      v.val_off = f_off;
      f_off += v.size();
    } else if (v.slot == SlotKind::kParam) {
      plan.param_scalars_ =
          std::max(plan.param_scalars_, v.param_offset + v.size());
    }
  }
  size_t d_off = 0;
  for (Op& op : plan.ops_) {
    if (op.kind == OpKind::kSegmentSoftmax) {
      // Forward: gmax (float) + gsum (double); backward reuses the double
      // region for gdot (both are num_groups wide and never live at the
      // same time).
      op.scratch_f = f_off;
      f_off += op.n_groups;
      op.scratch_d = d_off;
      d_off += op.n_groups;
    }
  }
  plan.ffwd_ = f_off;
  plan.grads_off_ = f_off;
  for (ValueNode& v : plan.vals_) {
    if (v.slot == SlotKind::kActivation && v.requires_grad) {
      v.grad_off = f_off;
      f_off += v.size();
    }
  }
  plan.grads_len_ = f_off - plan.grads_off_;
  for (Op& op : plan.ops_) {
    // dB is staged in a zeroed buffer and then added into the parameter
    // gradient, so the accumulation order is fixed even when the gradient
    // already holds mass.
    if (op.kind == OpKind::kMatMul && plan.vals_[op.b].requires_grad) {
      op.scratch_db = f_off;
      f_off += plan.vals_[op.b].size();
    }
  }
  plan.farena_ = f_off;
  plan.darena_ = d_off;

  // Backward schedule: an iterative post-order DFS from the output
  // (parent-visit order {a, b}), reversed. The order is a pure function of
  // the DAG, so gradient contributions to shared nodes always land in the
  // same order and float accumulation is deterministic.
  struct Frame {
    PlanValId node;
    size_t next_parent;
  };
  std::vector<PlanValId> order;
  std::vector<uint8_t> visited(plan.vals_.size(), 0);
  std::vector<Frame> stack;
  stack.push_back({output, 0});
  visited[output] = 1;
  auto parent_of = [&plan](PlanValId v, size_t i) -> PlanValId {
    const int32_t op_id = plan.vals_[v].op;
    if (op_id < 0) return -1;
    const Op& op = plan.ops_[op_id];
    if (i == 0) return op.a;
    if (i == 1) return op.b;
    return -1;
  };
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const PlanValId parent = parent_of(frame.node, frame.next_parent);
    if (parent >= 0 || frame.next_parent < 2) {
      ++frame.next_parent;
      if (parent >= 0 && !visited[parent]) {
        visited[parent] = 1;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const ValueNode& v = plan.vals_[*it];
    // A node participates in backprop iff an op produced it and its
    // result requires grad.
    if (v.op >= 0 && v.requires_grad) plan.backward_.push_back(v.op);
  }

  // -------------------------------------------------------------------------
  // Pass 1: elementwise fusion. Partition the forward schedule into maximal
  // runs of schedule-adjacent elementwise ops chained through the previous
  // op's output; each run executes as one sweep per buffer
  // (ExecFusedGroup). The sweep applies the same scalar arithmetic per
  // element as the unfused kernels, so fusion alone stays bit-identical to
  // the reference plan. The backward schedule is untouched — it replays the
  // original ops.
  // -------------------------------------------------------------------------
  if (opts.fuse_elementwise) {
    const auto& vals = plan.vals_;
    const auto& ops = plan.ops_;
    auto same_shape = [&vals](PlanValId x, PlanValId y) {
      return vals[x].rows == vals[y].rows && vals[x].cols == vals[y].cols;
    };
    size_t i = 0;
    while (i < ops.size()) {
      if (!IsElementwise(ops[i].kind)) {
        plan.steps_.push_back({static_cast<int32_t>(i), 1});
        ++i;
        continue;
      }
      const size_t start = i;
      size_t end = i + 1;
      while (end < ops.size() &&
             end - start < static_cast<size_t>(kMaxFuseLen)) {
        const Op& op = ops[end];
        if (!IsElementwise(op.kind)) break;
        const PlanValId prev = ops[end - 1].out;
        // Must chain through the previous op's output and keep the group's
        // element domain (all stages same shape).
        if (op.a != prev && op.b != prev) break;
        if (!same_shape(op.out, ops[start].out)) break;
        // Aliasing guard: the non-chained operand must be produced outside
        // the group — an in-group producer's buffer may be elided or only
        // partially written at the point the sweep would read it.
        const PlanValId other = (op.a == prev) ? op.b : op.a;
        if (other >= 0 && other != prev) {
          const int32_t oop = vals[other].op;
          if (oop >= static_cast<int32_t>(start) &&
              oop < static_cast<int32_t>(end)) {
            break;
          }
        }
        ++end;
      }
      plan.steps_.push_back(
          {static_cast<int32_t>(start), static_cast<int32_t>(end - start)});
      i = end;
    }

    // Write elision: a non-final value inside a group whose buffer nothing
    // observes — no forward consumer outside the group, no backward
    // value-read, not the plan output — never gets stored. (Arena space
    // stays reserved; the grad buffer, if any, is still used by backward.)
    for (const FusedStep& step : plan.steps_) {
      if (step.count <= 1) continue;
      const size_t gfirst = static_cast<size_t>(step.first_op);
      const size_t gend = gfirst + static_cast<size_t>(step.count);
      for (size_t j = gfirst; j + 1 < gend; ++j) {
        const PlanValId v = ops[j].out;
        bool live = (v == plan.output_);
        for (size_t ci = j + 1; ci < ops.size() && !live; ++ci) {
          const Op& c = ops[ci];
          const bool uses_a = (c.a == v), uses_b = (c.b == v);
          if (!uses_a && !uses_b) continue;
          if (ci >= gend) {
            live = true;  // Forward-read outside the group.
          } else {
            if (uses_a && BackwardReadsA(c.kind)) live = true;
            if (uses_b && BackwardReadsB(c.kind)) live = true;
          }
        }
        if (!live) plan.vals_[v].elided = true;
      }
    }
  }

  // -------------------------------------------------------------------------
  // Pass 2: per-op kernel selection. Every op gets a kernel table pointer;
  // the vectorizable kinds (matmul / gather / scatter) move to the
  // requested SIMD tier when the op is wide enough for full vectors —
  // narrow ops (cols < one AVX2 vector) stay scalar, which also keeps the
  // reference bit-identity for plans built with PlanOptions::Reference().
  // -------------------------------------------------------------------------
  const simd::Kernels& scalar_kt = simd::ScalarKernels();
  const simd::Kernels& simd_kt = simd::GetKernels(opts.isa);
  plan.isa_ = simd_kt.isa;
  for (Op& op : plan.ops_) {
    const simd::Kernels* kt = &scalar_kt;
    if (simd_kt.isa != simd::Isa::kScalar) {
      switch (op.kind) {
        case OpKind::kMatMul: {
          const size_t n = plan.vals_[op.out].cols;
          const size_t kdim = plan.vals_[op.a].cols;
          if (n >= 8 || (n == 1 && kdim >= 8)) kt = &simd_kt;
          break;
        }
        case OpKind::kGatherRows:
        case OpKind::kScatterAddRows:
        case OpKind::kWeightedScatterAddRows:
          if (plan.vals_[op.out].cols >= 8) kt = &simd_kt;
          break;
        default:
          break;
      }
    }
    op.kern = kt;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// ExecutionPlan.
// ---------------------------------------------------------------------------

size_t ExecutionPlan::output_rows() const {
  PRIVIM_CHECK(compiled());
  return vals_[output_].rows;
}

size_t ExecutionPlan::output_cols() const {
  PRIVIM_CHECK(compiled());
  return vals_[output_].cols;
}

void ExecutionPlan::EnsureArena(PlanArena& arena, size_t floats) const {
  if (arena.f.size() < floats) arena.f.resize(floats);
  if (arena.d.size() < darena_) arena.d.resize(darena_);
}

const float* ExecutionPlan::ValPtr(PlanValId id,
                                   std::span<const float> params,
                                   const Matrix& input,
                                   const PlanArena& arena) const {
  const ValueNode& v = vals_[id];
  switch (v.slot) {
    case SlotKind::kInput:
      return input.data();
    case SlotKind::kParam:
      return params.data() + v.param_offset;
    case SlotKind::kActivation:
      return arena.f.data() + v.val_off;
  }
  return nullptr;
}

float* ExecutionPlan::GradPtr(PlanValId id, std::span<float> param_grads,
                              PlanArena& arena) const {
  const ValueNode& v = vals_[id];
  if (!v.requires_grad) return nullptr;
  if (v.slot == SlotKind::kParam) return param_grads.data() + v.param_offset;
  return arena.f.data() + v.grad_off;
}

namespace {

// Elementwise forward/backward scalar functions shared by the unfused
// kernels and the fused sweep, so both round identically.
inline float SigmoidFwd(float v) {
  return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                   : std::exp(v) / (1.0f + std::exp(v));
}
inline float SigmoidBwd(float v) {
  const float s = SigmoidFwd(v);
  return s * (1.0f - s);
}

}  // namespace

void ExecutionPlan::ExecForwardOp(const Op& op, std::span<const float> params,
                                  const Matrix& input,
                                  PlanArena& arena) const {
  const ValueNode& on = vals_[op.out];
  float* out = arena.f.data() + on.val_off;
  const float* a = ValPtr(op.a, params, input, arena);
  const float* b = op.b >= 0 ? ValPtr(op.b, params, input, arena) : nullptr;
  const size_t rows = on.rows, cols = on.cols, size = on.size();
  switch (op.kind) {
    case OpKind::kMatMul: {
      const size_t m = vals_[op.a].rows, k = vals_[op.a].cols;
      op.kern->matmul(a, b, out, m, k, cols);
      break;
    }
    case OpKind::kAdd:
      for (size_t i = 0; i < size; ++i) out[i] = a[i] + b[i];
      break;
    case OpKind::kMul:
      for (size_t i = 0; i < size; ++i) out[i] = a[i] * b[i];
      break;
    case OpKind::kAddRowBroadcast:
      for (size_t r = 0; r < rows; ++r) {
        float* orow = out + r * cols;
        const float* xrow = a + r * cols;
        for (size_t c = 0; c < cols; ++c) orow[c] = xrow[c] + b[c];
      }
      break;
    case OpKind::kScale:
      for (size_t i = 0; i < size; ++i) out[i] = a[i] * op.c0;
      break;
    case OpKind::kAddScalar:
      for (size_t i = 0; i < size; ++i) out[i] = a[i] + op.c0;
      break;
    case OpKind::kScaleByScalar: {
      const float sv = b[0];
      for (size_t i = 0; i < size; ++i) out[i] = a[i] * sv;
      break;
    }
    case OpKind::kConcatCols: {
      const size_t a_cols = vals_[op.a].cols, b_cols = vals_[op.b].cols;
      for (size_t r = 0; r < rows; ++r) {
        float* orow = out + r * cols;
        std::copy(a + r * a_cols, a + (r + 1) * a_cols, orow);
        std::copy(b + r * b_cols, b + (r + 1) * b_cols, orow + a_cols);
      }
      break;
    }
    case OpKind::kRelu:
      for (size_t i = 0; i < size; ++i) {
        out[i] = a[i] > 0.0f ? a[i] : 0.0f;
      }
      break;
    case OpKind::kLeakyRelu:
      for (size_t i = 0; i < size; ++i) {
        out[i] = a[i] > 0.0f ? a[i] : op.c0 * a[i];
      }
      break;
    case OpKind::kSigmoid:
      for (size_t i = 0; i < size; ++i) out[i] = SigmoidFwd(a[i]);
      break;
    case OpKind::kInfluenceProb:
      for (size_t i = 0; i < size; ++i) {
        out[i] = a[i] > 0.0f ? 1.0f - std::exp(-a[i]) : 0.0f;
      }
      break;
    case OpKind::kSum: {
      double s = 0.0;
      const size_t n = vals_[op.a].size();
      for (size_t i = 0; i < n; ++i) s += a[i];
      out[0] = static_cast<float>(s);
      break;
    }
    case OpKind::kGatherRows:
      op.kern->gather_rows(a, op.idx_a, op.n_idx, cols, out);
      break;
    case OpKind::kScatterAddRows:
      op.kern->scatter_add_rows(a, op.idx_a, op.idx_b, op.coef, op.n_idx,
                                cols, out, size);
      break;
    case OpKind::kWeightedScatterAddRows:
      op.kern->weighted_scatter_add_rows(a, b, op.idx_a, op.idx_b, op.n_idx,
                                         cols, out, size);
      break;
    case OpKind::kSegmentSoftmax: {
      float* gmax = arena.f.data() + op.scratch_f;
      double* gsum = arena.d.data() + op.scratch_d;
      std::fill(gmax, gmax + op.n_groups, -1e30f);
      std::fill(gsum, gsum + op.n_groups, 0.0);
      for (size_t e = 0; e < op.n_idx; ++e) {
        gmax[op.idx_a[e]] = std::max(gmax[op.idx_a[e]], a[e]);
      }
      for (size_t e = 0; e < op.n_idx; ++e) {
        const float v = std::exp(a[e] - gmax[op.idx_a[e]]);
        out[e] = v;
        gsum[op.idx_a[e]] += v;
      }
      for (size_t e = 0; e < op.n_idx; ++e) {
        const double denom = gsum[op.idx_a[e]];
        out[e] = denom > 0.0 ? static_cast<float>(out[e] / denom) : 0.0f;
      }
      break;
    }
  }
}

namespace {

// Per-stage descriptor for one fused sweep. `other_mode` says how the
// non-chained operand (if any) is indexed: 1 = full (other[i]), 2 = row
// broadcast (other[c]), 3 = scalar (other[0]); 0 = no other operand (the
// chained value feeds both sides, or the op is unary).
struct StageExec {
  OpKind kind;
  const float* other = nullptr;
  float* out = nullptr;
  float c0 = 0.0f;
  uint8_t other_mode = 0;
  bool v_first = true;  // Chained value is operand a.
  bool write = true;
};

// The same scalar arithmetic per element as ExecForwardOp's unfused loops
// (every binary fusible op is add or mul, which are commutative bit-exactly
// — v_first only swaps operand order for clarity).
inline float ApplyStage(const StageExec& s, float v, size_t i, size_t c) {
  float o = v;
  switch (s.other_mode) {
    case 1:
      o = s.other[i];
      break;
    case 2:
      o = s.other[c];
      break;
    case 3:
      o = s.other[0];
      break;
    default:
      break;
  }
  switch (s.kind) {
    case OpKind::kAdd:
    case OpKind::kAddRowBroadcast:
      return s.v_first ? v + o : o + v;
    case OpKind::kMul:
    case OpKind::kScaleByScalar:
      return s.v_first ? v * o : o * v;
    case OpKind::kScale:
      return v * s.c0;
    case OpKind::kAddScalar:
      return v + s.c0;
    case OpKind::kRelu:
      return v > 0.0f ? v : 0.0f;
    case OpKind::kLeakyRelu:
      return v > 0.0f ? v : s.c0 * v;
    case OpKind::kSigmoid:
      return SigmoidFwd(v);
    case OpKind::kInfluenceProb:
      return v > 0.0f ? 1.0f - std::exp(-v) : 0.0f;
    default:
      return v;  // Unreachable: only elementwise kinds are fused.
  }
}

}  // namespace

void ExecutionPlan::ExecFusedGroup(const plan_internal::FusedStep& step,
                                   std::span<const float> params,
                                   const Matrix& input,
                                   PlanArena& arena) const {
  const Op* gops = &ops_[step.first_op];
  const int32_t count = step.count;
  const ValueNode& dom = vals_[gops[0].out];
  const size_t rows = dom.rows, cols = dom.cols;
  const float* in = ValPtr(gops[0].a, params, input, arena);

  StageExec st[kMaxFuseLen];
  for (int32_t s = 0; s < count; ++s) {
    const Op& op = gops[s];
    StageExec& se = st[s];
    se.kind = op.kind;
    se.c0 = op.c0;
    se.out = arena.f.data() + vals_[op.out].val_off;
    se.write = !vals_[op.out].elided;
    const PlanValId vsrc = (s == 0) ? op.a : gops[s - 1].out;
    se.v_first = (op.a == vsrc);
    const PlanValId other = se.v_first ? op.b : op.a;
    if (other < 0 || other == vsrc) {
      se.other_mode = 0;  // Unary, or the chained value feeds both sides.
    } else {
      se.other = ValPtr(other, params, input, arena);
      const ValueNode& ov = vals_[other];
      if (ov.rows == rows && ov.cols == cols) {
        se.other_mode = 1;
      } else if (ov.rows == 1 && ov.cols == cols) {
        se.other_mode = 2;  // kAddRowBroadcast bias.
      } else {
        se.other_mode = 3;  // kScaleByScalar [1,1].
      }
    }
  }

  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c, ++i) {
      float v = in[i];
      for (int32_t s = 0; s < count; ++s) {
        v = ApplyStage(st[s], v, i, c);
        if (st[s].write) st[s].out[i] = v;
      }
    }
  }
}

void ExecutionPlan::Forward(std::span<const float> params,
                            const Matrix& input, PlanArena& arena) const {
  PRIVIM_CHECK(compiled());
  PRIVIM_CHECK_GE(params.size(), param_scalars_);
  if (input_id_ >= 0) {
    PRIVIM_CHECK_EQ(input.rows(), vals_[input_id_].rows);
    PRIVIM_CHECK_EQ(input.cols(), vals_[input_id_].cols);
  }
  EnsureArena(arena, ffwd_);

  if (steps_.empty()) {
    for (const Op& op : ops_) ExecForwardOp(op, params, input, arena);
    return;
  }
  for (const FusedStep& step : steps_) {
    if (step.count == 1) {
      ExecForwardOp(ops_[step.first_op], params, input, arena);
    } else {
      ExecFusedGroup(step, params, input, arena);
    }
  }
}

size_t ExecutionPlan::num_elided_values() const {
  size_t n = 0;
  for (const ValueNode& v : vals_) n += v.elided ? 1 : 0;
  return n;
}

std::vector<std::pair<int32_t, int32_t>> ExecutionPlan::ForwardSteps() const {
  std::vector<std::pair<int32_t, int32_t>> out;
  if (steps_.empty()) {
    out.reserve(ops_.size());
    for (size_t i = 0; i < ops_.size(); ++i) {
      out.emplace_back(static_cast<int32_t>(i), 1);
    }
    return out;
  }
  out.reserve(steps_.size());
  for (const FusedStep& s : steps_) out.emplace_back(s.first_op, s.count);
  return out;
}

float ExecutionPlan::OutputScalar(const PlanArena& arena) const {
  PRIVIM_CHECK(compiled());
  PRIVIM_CHECK_EQ(vals_[output_].size(), 1u);
  return arena.f[vals_[output_].val_off];
}

std::span<const float> ExecutionPlan::Output(const PlanArena& arena) const {
  PRIVIM_CHECK(compiled());
  const ValueNode& v = vals_[output_];
  return {arena.f.data() + v.val_off, v.size()};
}

void ExecutionPlan::Backward(std::span<const float> params,
                             const Matrix& input, PlanArena& arena,
                             std::span<float> param_grads) const {
  PRIVIM_CHECK(compiled());
  PRIVIM_CHECK_EQ(vals_[output_].size(), 1u);
  PRIVIM_CHECK_GE(param_grads.size(), param_scalars_);
  EnsureArena(arena, farena_);

  std::fill(param_grads.begin(), param_grads.end(), 0.0f);
  float* grads = arena.f.data() + grads_off_;
  std::fill(grads, grads + grads_len_, 0.0f);
  if (!vals_[output_].requires_grad) return;  // Frozen graph: no-op.
  arena.f[vals_[output_].grad_off] += 1.0f;   // Seed d(loss)/d(loss).

  for (const int32_t op_id : backward_) {
    const Op& op = ops_[op_id];
    const ValueNode& on = vals_[op.out];
    const float* g = arena.f.data() + on.grad_off;
    const float* out_val = arena.f.data() + on.val_off;
    const float* av = ValPtr(op.a, params, input, arena);
    const float* bv =
        op.b >= 0 ? ValPtr(op.b, params, input, arena) : nullptr;
    float* ag = GradPtr(op.a, param_grads, arena);
    float* bg = op.b >= 0 ? GradPtr(op.b, param_grads, arena) : nullptr;
    const size_t rows = on.rows, cols = on.cols, size = on.size();
    switch (op.kind) {
      case OpKind::kMatMul: {
        const size_t m = rows, n = cols;
        const size_t k = vals_[op.a].cols;
        if (ag != nullptr) {
          // dA = dOut * B^T: each entry is one locally accumulated dot,
          // added once.
          op.kern->matmul_da(g, bv, ag, m, k, n);
        }
        if (bg != nullptr) {
          // dB = A^T * dOut, staged in a zeroed scratch then added.
          float* s = arena.f.data() + op.scratch_db;
          op.kern->matmul_db(av, g, s, m, k, n);
          for (size_t i = 0; i < k * n; ++i) bg[i] += s[i];
        }
        break;
      }
      case OpKind::kAdd:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) ag[i] += g[i];
        }
        if (bg != nullptr) {
          for (size_t i = 0; i < size; ++i) bg[i] += g[i];
        }
        break;
      case OpKind::kMul:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) ag[i] += g[i] * bv[i];
        }
        if (bg != nullptr) {
          for (size_t i = 0; i < size; ++i) bg[i] += g[i] * av[i];
        }
        break;
      case OpKind::kAddRowBroadcast:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) ag[i] += g[i];
        }
        if (bg != nullptr) {
          for (size_t r = 0; r < rows; ++r) {
            const float* grow = g + r * cols;
            for (size_t c = 0; c < cols; ++c) bg[c] += grow[c];
          }
        }
        break;
      case OpKind::kScale:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) ag[i] += op.c0 * g[i];
        }
        break;
      case OpKind::kAddScalar:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) ag[i] += g[i];
        }
        break;
      case OpKind::kScaleByScalar: {
        const float sv = bv[0];
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) ag[i] += sv * g[i];
        }
        if (bg != nullptr) {
          double acc = 0.0;
          for (size_t i = 0; i < size; ++i) {
            acc += static_cast<double>(g[i]) * av[i];
          }
          bg[0] += static_cast<float>(acc);
        }
        break;
      }
      case OpKind::kConcatCols: {
        const size_t a_cols = vals_[op.a].cols, b_cols = vals_[op.b].cols;
        for (size_t r = 0; r < rows; ++r) {
          const float* grow = g + r * cols;
          if (ag != nullptr) {
            float* arow = ag + r * a_cols;
            for (size_t c = 0; c < a_cols; ++c) arow[c] += grow[c];
          }
          if (bg != nullptr) {
            float* brow = bg + r * b_cols;
            for (size_t c = 0; c < b_cols; ++c) brow[c] += grow[a_cols + c];
          }
        }
        break;
      }
      case OpKind::kRelu:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) {
            ag[i] += g[i] * (av[i] > 0.0f ? 1.0f : 0.0f);
          }
        }
        break;
      case OpKind::kLeakyRelu:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) {
            ag[i] += g[i] * (av[i] > 0.0f ? 1.0f : op.c0);
          }
        }
        break;
      case OpKind::kSigmoid:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) ag[i] += g[i] * SigmoidBwd(av[i]);
        }
        break;
      case OpKind::kInfluenceProb:
        if (ag != nullptr) {
          for (size_t i = 0; i < size; ++i) {
            ag[i] += g[i] * (av[i] > 0.0f ? std::exp(-av[i]) : 0.0f);
          }
        }
        break;
      case OpKind::kSum:
        if (ag != nullptr) {
          const float g0 = g[0];
          const size_t n = vals_[op.a].size();
          for (size_t i = 0; i < n; ++i) ag[i] += g0;
        }
        break;
      case OpKind::kGatherRows:
        if (ag != nullptr) {
          op.kern->gather_rows_grad(g, op.idx_a, op.n_idx, cols, ag);
        }
        break;
      case OpKind::kScatterAddRows:
        if (ag != nullptr) {
          op.kern->scatter_add_rows_grad(g, op.idx_a, op.idx_b, op.coef,
                                         op.n_idx, cols, ag);
        }
        break;
      case OpKind::kWeightedScatterAddRows:
        if (ag != nullptr || bg != nullptr) {
          op.kern->weighted_scatter_add_rows_grad(av, bv, g, op.idx_a,
                                                  op.idx_b, op.n_idx, cols,
                                                  ag, bg);
        }
        break;
      case OpKind::kSegmentSoftmax:
        if (ag != nullptr) {
          double* gdot = arena.d.data() + op.scratch_d;
          std::fill(gdot, gdot + op.n_groups, 0.0);
          for (size_t e = 0; e < op.n_idx; ++e) {
            gdot[op.idx_a[e]] +=
                static_cast<double>(out_val[e]) * g[e];
          }
          for (size_t e = 0; e < op.n_idx; ++e) {
            const float alpha = out_val[e];
            ag[e] += alpha * (g[e] - static_cast<float>(gdot[op.idx_a[e]]));
          }
        }
        break;
    }
  }
}

}  // namespace privim
