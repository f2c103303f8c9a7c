#ifndef PRIVIM_NN_GNN_H_
#define PRIVIM_NN_GNN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "nn/graph_context.h"
#include "nn/layers.h"
#include "nn/param_store.h"
#include "tensor/plan.h"

namespace privim {

/// GNN backbones evaluated in the paper (Section V-E / Appendix G).
enum class GnnType { kGcn, kSage, kGin, kGat, kGrat };

/// Parses "gcn", "graphsage"/"sage", "gin", "gat", "grat".
Result<GnnType> ParseGnnType(const std::string& name);
std::string GnnTypeName(GnnType type);

/// A compiled, reusable forward(+backward) program for one
/// (GnnConfig, GraphContext) pair — see tensor/plan.h. Derived state:
/// recompiled on demand, never serialized.
using GnnPlan = ExecutionPlan;

/// Hyper-parameters of the seed-scoring GNN. Defaults match the paper:
/// three layers of 32 hidden units.
struct GnnConfig {
  GnnType type = GnnType::kGrat;
  size_t in_dim = 8;
  size_t hidden_dim = 32;
  size_t num_layers = 3;
};

/// A stack of message-passing layers followed by a linear head and sigmoid,
/// producing a per-node probability of inclusion in the seed set.
///
/// One model instance owns its ParamStore; the same parameters are used for
/// every subgraph in training and for the full graph at inference.
class GnnModel {
 public:
  /// Builds and initializes the model. Parameters are drawn from `rng`.
  GnnModel(const GnnConfig& config, Rng& rng);

  GnnModel(const GnnModel&) = delete;
  GnnModel& operator=(const GnnModel&) = delete;

  /// Compiles the model against `ctx` into a reusable plan whose output
  /// is the [num_nodes, 1] matrix of seed probabilities in (0, 1). Execute
  /// with the flat parameter vector (params().values()) and the
  /// [ctx.num_nodes, in_dim] feature matrix. The default
  /// PlanOptions::Reference() is the reference implementation; optimized
  /// options (PlanOptions::Native()) trade bit-identity for fused/SIMD
  /// speed under the tolerance contract of docs/performance.md. The plan
  /// borrows `ctx`'s edge vectors and must not outlive them. Training
  /// composes LowerLogits with the loss lowering instead (see
  /// core/plan_cache.h).
  GnnPlan Compile(const GraphContext& ctx,
                  const PlanOptions& opts = PlanOptions()) const;

  /// Records the pre-sigmoid seed scores into `pb` (input `x` must be
  /// [ctx.num_nodes, in_dim]) and returns the [num_nodes, 1] logits value
  /// id. Logits are monotone in the probabilities but free of float32
  /// sigmoid saturation, so top-k ranking stays sharp even when many
  /// probabilities round to 1.0. Building block for Compile(), for
  /// InferSeedLogits and for training plans that append the loss lowering.
  PlanValId LowerLogits(PlanBuilder& pb, const GraphContext& ctx,
                        PlanValId x) const;

  const GnnConfig& config() const { return config_; }
  ParamStore& params() { return params_; }
  const ParamStore& params() const { return params_; }

 private:
  GnnConfig config_;
  ParamStore params_;
  std::vector<std::unique_ptr<GnnLayer>> layers_;
  ParamEntry head_weight_;  // [hidden_dim, 1]
  ParamEntry head_bias_;    // [1, 1]
};

/// Seed logits of every node of `graph`: builds the message-passing
/// context and the structural features (nn/features.h; `graph` must carry
/// its in-CSR and `model` must take kNodeFeatureDim inputs), then runs one
/// forward-only pass of the LowerLogits plan compiled with `opts` on a
/// transient arena. Fails with InvalidArgument, naming the node, when a
/// logit is not finite — NaN or overflowing parameters cannot be ranked.
/// Evaluation calls it with PlanOptions::Reference(), serving snapshots
/// with PlanOptions::Native().
Result<std::vector<float>> InferSeedLogits(const GnnModel& model,
                                           const Graph& graph,
                                           const PlanOptions& opts);

}  // namespace privim

#endif  // PRIVIM_NN_GNN_H_
