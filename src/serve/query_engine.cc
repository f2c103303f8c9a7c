#include "serve/query_engine.h"

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"
#include "im/diffusion.h"

namespace privim {

QueryEngine::QueryEngine() { workspaces_.EnsureSlots(1); }

Status QueryEngine::Execute(const Graph& graph,
                            const ModelSnapshot* snapshot,
                            const RrSketch* sketch,
                            const QueryRequest& request,
                            QueryResponse& response) {
  response.Clear();
  response.type = request.type;
  PRIVIM_RETURN_NOT_OK(ValidateRequest(request, graph.num_nodes()));
  switch (request.type) {
    case QueryType::kTopK:
      if (snapshot == nullptr) {
        return Status::FailedPrecondition(
            "topk query needs a model snapshot; load one with "
            "Server::LoadSnapshot before serving");
      }
      if (snapshot->num_nodes() != graph.num_nodes()) {
        return Status::FailedPrecondition(
            "snapshot was compiled against a different graph");
      }
      return ExecuteTopK(graph, *snapshot, sketch, request, response);
    case QueryType::kSpread:
      return ExecuteSpread(graph, sketch, request, response);
    case QueryType::kMarginalGain:
      return ExecuteMarginalGain(graph, sketch, request, response);
  }
  return Status::Internal("unhandled query type");
}

Status QueryEngine::ExecuteTopK(const Graph& graph,
                                const ModelSnapshot& snapshot,
                                const RrSketch* sketch,
                                const QueryRequest& request,
                                QueryResponse& response) {
  std::span<const NodeId> top;
  if (request.candidates.empty()) {
    top = snapshot.ranked().first(std::min(request.k, snapshot.num_nodes()));
  } else {
    // k distinct seeds: a repeated candidate would be returned twice. The
    // workspace's membership set is free here: the spread estimate that
    // next uses it runs after this loop and resets it first.
    VisitedSet& seen = workspaces_.Acquire(0).visited;
    seen.Reset(graph.num_nodes());
    rank_.clear();
    for (NodeId c : request.candidates) {
      if (seen.Contains(c)) {
        return Status::InvalidArgument(StrFormat(
            "candidates: node %u appears more than once; top-k returns k "
            "distinct seeds",
            c));
      }
      seen.Insert(c);
      rank_.push_back(c);
    }
    const size_t k = std::min(request.k, rank_.size());
    std::partial_sort(rank_.begin(), rank_.begin() + k, rank_.end(),
                      [&snapshot](NodeId a, NodeId b) {
                        return snapshot.RanksBefore(a, b);
                      });
    top = std::span<const NodeId>(rank_).first(k);
  }
  response.snapshot_id = snapshot.id();
  const std::span<const float> logits = snapshot.logits();
  for (NodeId u : top) {
    response.seeds.push_back(u);
    response.values.push_back(static_cast<double>(logits[u]));
  }
  PRIVIM_ASSIGN_OR_RETURN(
      response.spread,
      EstimateSpreadFor(graph, response.seeds, sketch, request,
                        /*stream_offset=*/0));
  return Status::OK();
}

Status QueryEngine::ExecuteSpread(const Graph& graph, const RrSketch* sketch,
                                  const QueryRequest& request,
                                  QueryResponse& response) {
  PRIVIM_ASSIGN_OR_RETURN(
      response.spread,
      EstimateSpreadFor(graph, request.seeds, sketch, request,
                        /*stream_offset=*/0));
  return Status::OK();
}

Status QueryEngine::ExecuteMarginalGain(const Graph& graph,
                                        const RrSketch* sketch,
                                        const QueryRequest& request,
                                        QueryResponse& response) {
  PRIVIM_ASSIGN_OR_RETURN(
      const double base,
      EstimateSpreadFor(graph, request.seeds, sketch, request,
                        /*stream_offset=*/0));
  seed_buf_.clear();
  seed_buf_.insert(seed_buf_.end(), request.seeds.begin(),
                   request.seeds.end());
  for (size_t i = 0; i < request.candidates.size(); ++i) {
    seed_buf_.push_back(request.candidates[i]);
    // Candidate i draws trial streams [(i+1)*trials, (i+2)*trials) of
    // request.seed, disjoint from the base estimate's [0, trials) — the
    // gains are independent of candidate order and worker identity.
    PRIVIM_ASSIGN_OR_RETURN(
        const double with_candidate,
        EstimateSpreadFor(graph, seed_buf_, sketch, request,
                          (i + 1) * request.trials));
    response.values.push_back(with_candidate - base);
    seed_buf_.pop_back();
  }
  response.spread = base;
  return Status::OK();
}

Result<double> QueryEngine::EstimateSpreadFor(const Graph& graph,
                                              std::span<const NodeId> seeds,
                                              const RrSketch* sketch,
                                              const QueryRequest& request,
                                              uint64_t stream_offset) {
  Workspace& ws = workspaces_.Acquire(0);
  // The Graph-overload diffusion entry points delegate through GraphView
  // (im/diffusion.h), so these reads cannot bypass a graph overlay.
  switch (request.estimator) {
    case SpreadEstimator::kExact:
      return static_cast<double>(
          ExactUnitWeightSpread(graph, seeds, request.max_steps, ws));
    case SpreadEstimator::kMonteCarloIc: {
      double total = 0.0;
      for (size_t t = 0; t < request.trials; ++t) {
        Rng trial_rng =
            Rng::FromStreamKey(request.seed, stream_offset + t);
        total += static_cast<double>(SimulateIcCascade(
            graph, seeds, trial_rng, request.max_steps, ws));
      }
      return total / static_cast<double>(request.trials);
    }
    case SpreadEstimator::kRrSketch:
      if (sketch == nullptr) {
        return Status::FailedPrecondition(
            "request selects the sketch estimator but the server holds no "
            "resident RR sketch; set ServeConfig::rr_sketch_sets > 0");
      }
      // A sketch estimates spread at the one horizon it was drawn at;
      // answering another j would silently change the quantity.
      if ((request.max_steps < 0 ? -1 : request.max_steps) !=
          sketch->max_steps()) {
        return Status::FailedPrecondition(StrFormat(
            "request asks for max_steps=%d but the resident RR sketch was "
            "drawn at max_steps=%d; use the exact or mc estimator for "
            "other horizons",
            request.max_steps, sketch->max_steps()));
      }
      return sketch->EstimateSpread(seeds, sketch_covered_);
  }
  return Status::Internal("unhandled spread estimator");
}

}  // namespace privim
