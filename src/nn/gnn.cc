#include "nn/gnn.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/string_util.h"
#include "nn/features.h"

namespace privim {

Result<GnnType> ParseGnnType(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "gcn") return GnnType::kGcn;
  if (lower == "sage" || lower == "graphsage") return GnnType::kSage;
  if (lower == "gin") return GnnType::kGin;
  if (lower == "gat") return GnnType::kGat;
  if (lower == "grat") return GnnType::kGrat;
  return Status::NotFound(StrFormat("unknown GNN type '%s'", name.c_str()));
}

std::string GnnTypeName(GnnType type) {
  switch (type) {
    case GnnType::kGcn:
      return "GCN";
    case GnnType::kSage:
      return "GraphSAGE";
    case GnnType::kGin:
      return "GIN";
    case GnnType::kGat:
      return "GAT";
    case GnnType::kGrat:
      return "GRAT";
  }
  return "?";
}

namespace {

std::unique_ptr<GnnLayer> MakeLayer(GnnType type, size_t in_dim,
                                    size_t out_dim, ParamStore& store,
                                    Rng& rng, const std::string& name) {
  switch (type) {
    case GnnType::kGcn:
      return std::make_unique<GcnConv>(in_dim, out_dim, store, rng, name);
    case GnnType::kSage:
      return std::make_unique<SageConv>(in_dim, out_dim, store, rng, name);
    case GnnType::kGin:
      return std::make_unique<GinConv>(in_dim, out_dim, store, rng, name);
    case GnnType::kGat:
      return std::make_unique<AttentionConv>(
          in_dim, out_dim, AttentionNorm::kTarget, store, rng, name);
    case GnnType::kGrat:
      return std::make_unique<AttentionConv>(
          in_dim, out_dim, AttentionNorm::kSource, store, rng, name);
  }
  PRIVIM_CHECK(false) << "unknown GnnType";
  return nullptr;
}

}  // namespace

GnnModel::GnnModel(const GnnConfig& config, Rng& rng) : config_(config) {
  PRIVIM_CHECK_GE(config.num_layers, 1u);
  size_t in_dim = config.in_dim;
  for (size_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(MakeLayer(config.type, in_dim, config.hidden_dim,
                                params_, rng,
                                StrFormat("layer%zu", l)));
    in_dim = config.hidden_dim;
  }
  head_weight_ = params_.NewGlorot("head.W", config.hidden_dim, 1, rng);
  head_bias_ = params_.NewConstant("head.b", 1, 1, 0.0f);
}

PlanValId GnnModel::LowerLogits(PlanBuilder& pb, const GraphContext& ctx,
                                PlanValId x) const {
  PlanValId h = x;
  for (const auto& layer : layers_) {
    // LeakyReLU between layers: the structural features are all
    // non-negative, so plain ReLU can kill an entire signal path at
    // unlucky initializations and collapse the seed scores to a constant.
    h = pb.LeakyRelu(layer->Lower(pb, ctx, h), 0.1f);
  }
  return pb.AddRowBroadcast(pb.MatMul(h, head_weight_.Bind(pb)),
                            head_bias_.Bind(pb));
}

GnnPlan GnnModel::Compile(const GraphContext& ctx,
                          const PlanOptions& opts) const {
  PlanBuilder pb;
  const PlanValId x = pb.Input(ctx.num_nodes, config_.in_dim);
  return pb.Build(pb.Sigmoid(LowerLogits(pb, ctx, x)), opts);
}

Result<std::vector<float>> InferSeedLogits(const GnnModel& model,
                                           const Graph& graph,
                                           const PlanOptions& opts) {
  // Context, features, plan and arena are transient; only the logits
  // outlive this call. A forward-only arena never grows past the plan's
  // forward prefix (no gradient buffers).
  const GraphContext ctx = BuildGraphContext(graph);
  const Matrix features = BuildNodeFeatures(graph);
  PlanBuilder pb;
  const PlanValId x = pb.Input(ctx.num_nodes, model.config().in_dim);
  const GnnPlan plan = pb.Build(model.LowerLogits(pb, ctx, x), opts);
  PlanArena arena;
  plan.Forward(model.params().values(), features, arena);
  const std::span<const float> out = plan.Output(arena);
  for (size_t u = 0; u < out.size(); ++u) {
    if (!std::isfinite(out[u])) {
      return Status::InvalidArgument(StrFormat(
          "node %zu has a non-finite seed logit (%g); the model's "
          "parameters are not finite or overflow float",
          u, static_cast<double>(out[u])));
    }
  }
  return std::vector<float>(out.begin(), out.end());
}

}  // namespace privim
