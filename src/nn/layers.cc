#include "nn/layers.h"

namespace privim {

GcnConv::GcnConv(size_t in_dim, size_t out_dim, ParamStore& store, Rng& rng,
                 const std::string& name)
    : weight_(store.NewGlorot(name + ".W", in_dim, out_dim, rng)),
      bias_(store.NewConstant(name + ".b", 1, out_dim, 0.0f)),
      name_(name) {}

PlanValId GcnConv::Lower(PlanBuilder& pb, const GraphContext& ctx,
                         PlanValId x) const {
  const PlanValId agg =
      pb.ScatterAddRows(x, ctx.src, ctx.dst, ctx.gcn_coef, ctx.num_nodes);
  return pb.AddRowBroadcast(pb.MatMul(agg, weight_.Bind(pb)),
                            bias_.Bind(pb));
}

SageConv::SageConv(size_t in_dim, size_t out_dim, ParamStore& store,
                   Rng& rng, const std::string& name)
    : weight_(store.NewGlorot(name + ".W", 2 * in_dim, out_dim, rng)),
      bias_(store.NewConstant(name + ".b", 1, out_dim, 0.0f)),
      name_(name) {}

PlanValId SageConv::Lower(PlanBuilder& pb, const GraphContext& ctx,
                          PlanValId x) const {
  const PlanValId mean =
      pb.ScatterAddRows(x, ctx.src, ctx.dst, ctx.mean_coef, ctx.num_nodes);
  const PlanValId cat = pb.ConcatCols(x, mean);
  return pb.AddRowBroadcast(pb.MatMul(cat, weight_.Bind(pb)),
                            bias_.Bind(pb));
}

GinConv::GinConv(size_t in_dim, size_t out_dim, ParamStore& store, Rng& rng,
                 const std::string& name)
    : w1_(store.NewGlorot(name + ".W1", in_dim, out_dim, rng)),
      b1_(store.NewConstant(name + ".b1", 1, out_dim, 0.0f)),
      w2_(store.NewGlorot(name + ".W2", out_dim, out_dim, rng)),
      b2_(store.NewConstant(name + ".b2", 1, out_dim, 0.0f)),
      omega_(store.NewConstant(name + ".omega", 1, 1, 0.0f)),
      name_(name) {}

PlanValId GinConv::Lower(PlanBuilder& pb, const GraphContext& ctx,
                         PlanValId x) const {
  const PlanValId neighbor_sum =
      pb.ScatterAddRows(x, ctx.src, ctx.dst, ctx.sum_coef, ctx.num_nodes);
  // (1 + omega) * h_v: omega is a differentiable scalar.
  const PlanValId self = pb.Add(x, pb.ScaleByScalar(x, omega_.Bind(pb)));
  const PlanValId combined = pb.Add(neighbor_sum, self);
  const PlanValId hidden = pb.Relu(
      pb.AddRowBroadcast(pb.MatMul(combined, w1_.Bind(pb)), b1_.Bind(pb)));
  return pb.AddRowBroadcast(pb.MatMul(hidden, w2_.Bind(pb)), b2_.Bind(pb));
}

AttentionConv::AttentionConv(size_t in_dim, size_t out_dim,
                             AttentionNorm norm, ParamStore& store, Rng& rng,
                             const std::string& name)
    : weight_(store.NewGlorot(name + ".W", in_dim, out_dim, rng)),
      att_src_(store.NewGlorot(name + ".a_src", out_dim, 1, rng)),
      att_dst_(store.NewGlorot(name + ".a_dst", out_dim, 1, rng)),
      norm_(norm),
      name_(name) {}

PlanValId AttentionConv::Lower(PlanBuilder& pb, const GraphContext& ctx,
                               PlanValId x) const {
  const PlanValId xw = pb.MatMul(x, weight_.Bind(pb));  // [n, out_dim]
  // Per-node attention logits, then gathered per arc. The standard GATv1
  // decomposition a.[Wh_u || Wh_v] = a_src.Wh_u + a_dst.Wh_v.
  const PlanValId logit_src = pb.MatMul(xw, att_src_.Bind(pb));  // [n, 1]
  const PlanValId logit_dst = pb.MatMul(xw, att_dst_.Bind(pb));  // [n, 1]
  const PlanValId e = pb.LeakyRelu(
      pb.Add(pb.GatherRows(logit_src, ctx.src),
             pb.GatherRows(logit_dst, ctx.dst)),
      0.2f);
  const std::vector<uint32_t>& group =
      norm_ == AttentionNorm::kTarget ? ctx.dst : ctx.src;
  const PlanValId alpha = pb.SegmentSoftmax(e, group, ctx.num_nodes);
  return pb.WeightedScatterAddRows(alpha, xw, ctx.src, ctx.dst,
                                   ctx.num_nodes);
}

}  // namespace privim
