#include "serve/snapshot.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "nn/features.h"
#include "nn/serialization.h"
#include "tensor/plan.h"

namespace privim {

namespace {

uint64_t NextSnapshotId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromModel(
    std::unique_ptr<GnnModel> model, std::shared_ptr<const Graph> graph) {
  if (graph == nullptr) {
    return Status::InvalidArgument(
        "graph-owning ModelSnapshot::FromModel: null graph");
  }
  PRIVIM_ASSIGN_OR_RETURN(std::shared_ptr<const ModelSnapshot> snap,
                          FromModel(std::move(model), *graph));
  // The const_cast is confined to construction: the snapshot was created
  // two lines up and has no other owner yet.
  const_cast<ModelSnapshot&>(*snap).graph_ = std::move(graph);
  return snap;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromModel(
    std::unique_ptr<GnnModel> model, const Graph& graph) {
  if (model == nullptr) {
    return Status::InvalidArgument("ModelSnapshot::FromModel: null model");
  }
  if (model->config().in_dim != kNodeFeatureDim) {
    return Status::FailedPrecondition(StrFormat(
        "model expects %zu input features but the serving layer feeds the "
        "%zu structural node features (nn/features.h); the snapshot was "
        "trained against a different feature pipeline",
        model->config().in_dim, kNodeFeatureDim));
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument(
        "cannot build a snapshot against an empty graph");
  }
  if (!graph.has_in_csr()) {
    return Status::FailedPrecondition(
        "snapshot features read in-degrees; call Graph::EnsureInCsr() on "
        "graphs built without the in-CSR before installing snapshots");
  }
  // Serving is inference-only, so the logits plan takes the optimized
  // (fused + SIMD) compile: still a deterministic pure function of
  // (model, graph), within the docs/performance.md tolerance of the
  // reference plan. PRIVIM_FORCE_ISA=scalar restores the reference
  // kernels. InferSeedLogits rejects non-finite logits: the ranking sorts
  // under RanksBefore, which is an order only over finite values.
  PRIVIM_ASSIGN_OR_RETURN(std::vector<float> logits,
                          InferSeedLogits(*model, graph,
                                          PlanOptions::Native()));
  // make_shared needs a public constructor; the snapshot is immutable
  // after this function, so a plain new behind a shared_ptr is fine.
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->id_ = NextSnapshotId();
  snap->model_ = std::move(model);
  snap->logits_ = std::move(logits);
  snap->ranked_.resize(snap->logits_.size());
  std::iota(snap->ranked_.begin(), snap->ranked_.end(), NodeId{0});
  std::sort(snap->ranked_.begin(), snap->ranked_.end(),
            [&snap](NodeId a, NodeId b) { return snap->RanksBefore(a, b); });
  return std::shared_ptr<const ModelSnapshot>(std::move(snap));
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const std::string& path, const Graph& graph) {
  PRIVIM_ASSIGN_OR_RETURN(std::unique_ptr<GnnModel> model, LoadModel(path));
  return FromModel(std::move(model), graph);
}

}  // namespace privim
