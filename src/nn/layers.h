#ifndef PRIVIM_NN_LAYERS_H_
#define PRIVIM_NN_LAYERS_H_

#include <memory>
#include <string>

#include "common/rng.h"
#include "nn/graph_context.h"
#include "nn/param_store.h"
#include "tensor/plan.h"

namespace privim {

/// Base class for one message-passing layer (Appendix G of the paper).
/// Layers register their parameters in a shared ParamStore at construction
/// and keep only where they live in its flat vector: Lower() may record the
/// layer against any GraphContext (subgraphs during training, the full
/// graph at inference).
class GnnLayer {
 public:
  virtual ~GnnLayer() = default;

  /// Records the layer into a PlanBuilder: x is [num_nodes, in_dim];
  /// returns the [num_nodes, out_dim] pre-activation value id (models apply
  /// the nonlinearity). Parameters are bound at their offsets in the store
  /// the layer registered into. The compiled plan borrows `ctx`'s edge
  /// vectors and must not outlive them.
  virtual PlanValId Lower(PlanBuilder& pb, const GraphContext& ctx,
                          PlanValId x) const = 0;

  virtual std::string name() const = 0;
};

/// GCN (Kipf & Welling): h_v' = W * sum_{u in N(v)} h_u / sqrt(d_v d_u),
/// with self-loops; symmetric normalization precomputed in GraphContext.
class GcnConv : public GnnLayer {
 public:
  GcnConv(size_t in_dim, size_t out_dim, ParamStore& store, Rng& rng,
          const std::string& name);
  PlanValId Lower(PlanBuilder& pb, const GraphContext& ctx,
                  PlanValId x) const override;
  std::string name() const override { return name_; }

 private:
  ParamEntry weight_;
  ParamEntry bias_;
  std::string name_;
};

/// GraphSAGE (mean aggregator): h_v' = W [h_v || mean_{u in N(v)} h_u].
class SageConv : public GnnLayer {
 public:
  SageConv(size_t in_dim, size_t out_dim, ParamStore& store, Rng& rng,
           const std::string& name);
  PlanValId Lower(PlanBuilder& pb, const GraphContext& ctx,
                  PlanValId x) const override;
  std::string name() const override { return name_; }

 private:
  ParamEntry weight_;  // [2*in_dim, out_dim]
  ParamEntry bias_;
  std::string name_;
};

/// GIN: h_v' = MLP( (1 + omega) h_v + sum_{u in N(v)} h_u ), two-layer MLP.
class GinConv : public GnnLayer {
 public:
  GinConv(size_t in_dim, size_t out_dim, ParamStore& store, Rng& rng,
          const std::string& name);
  PlanValId Lower(PlanBuilder& pb, const GraphContext& ctx,
                  PlanValId x) const override;
  std::string name() const override { return name_; }

 private:
  ParamEntry w1_;  // [in_dim, out_dim]
  ParamEntry b1_;
  ParamEntry w2_;  // [out_dim, out_dim]
  ParamEntry b2_;
  ParamEntry omega_;  // [1,1], initialised to 0
  std::string name_;
};

/// Attention normalization direction for AttentionConv.
enum class AttentionNorm {
  /// GAT: softmax over each *target's* incoming arcs (Eq. 35).
  kTarget,
  /// GRAT: softmax over each *source's* outgoing arcs (Eq. 39) — reduces
  /// the reward for overlapping coverage, the paper's preferred model.
  kSource,
};

/// Single-head GAT/GRAT layer:
///   e_uv = LeakyReLU(a1 . Wh_u + a2 . Wh_v), alpha = segment-softmax(e),
///   h_v' = sum_u alpha_uv Wh_u.
class AttentionConv : public GnnLayer {
 public:
  AttentionConv(size_t in_dim, size_t out_dim, AttentionNorm norm,
                ParamStore& store, Rng& rng, const std::string& name);
  PlanValId Lower(PlanBuilder& pb, const GraphContext& ctx,
                  PlanValId x) const override;
  std::string name() const override { return name_; }

 private:
  ParamEntry weight_;  // [in_dim, out_dim]
  ParamEntry att_src_;  // [out_dim, 1]
  ParamEntry att_dst_;  // [out_dim, 1]
  AttentionNorm norm_;
  std::string name_;
};

}  // namespace privim

#endif  // PRIVIM_NN_LAYERS_H_
