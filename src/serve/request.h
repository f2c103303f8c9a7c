#ifndef PRIVIM_SERVE_REQUEST_H_
#define PRIVIM_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace privim {

/// Query vocabulary of the online serving layer (src/serve/, see
/// docs/serving.md).
///
/// All three query types are *post-processing* of the DP-trained model and
/// the public evaluation graph: answering them consumes no additional
/// privacy budget, however many queries are served (the decoupled-design
/// argument — once the mechanism's output is fixed, inference is free).
enum class QueryType {
  /// Top-k seed selection: rank candidates by the model's seed logits and
  /// return the k best (ties broken by ascending node id, so the answer is
  /// a pure function of the snapshot).
  kTopK,
  /// Influence-spread estimate for a caller-supplied seed set.
  kSpread,
  /// Coverage / marginal-gain: for each candidate c, the spread gain of
  /// adding c to the base seed set, spread(S ∪ {c}) - spread(S).
  kMarginalGain,
};

std::string QueryTypeName(QueryType type);
Result<QueryType> ParseQueryType(const std::string& name);

/// Spread estimator backing kSpread / kMarginalGain queries.
enum class SpreadEstimator {
  /// Exact unit-weight j-step closure (the paper's evaluation setting).
  kExact,
  /// Monte-Carlo IC cascades; `trials` per estimate, streams derived from
  /// the request seed, so the estimate is deterministic per (request.seed).
  kMonteCarloIc,
  /// Resident RR sketch shared by all workers (Server::BuildSketch),
  /// drawn at the default max_steps (j = 1); answers only requests whose
  /// max_steps is that horizon. Deterministic per (sketch, seed set).
  kRrSketch,
};

std::string SpreadEstimatorName(SpreadEstimator estimator);
Result<SpreadEstimator> ParseSpreadEstimator(const std::string& name);

/// One influence query. Plain data: the caller owns the request for the
/// duration of the query (the queue stores pointers, not copies).
struct QueryRequest {
  QueryType type = QueryType::kTopK;

  /// kTopK: seed budget.
  size_t k = 50;
  /// kTopK: candidate restriction (empty = all nodes of the resident
  /// graph); a repeated node id fails the query with InvalidArgument,
  /// since top-k returns k distinct seeds. kMarginalGain: the candidates
  /// to score, repeats allowed (gains align with this list).
  std::vector<NodeId> candidates;
  /// kSpread / kMarginalGain: the base seed set.
  std::vector<NodeId> seeds;

  SpreadEstimator estimator = SpreadEstimator::kExact;
  /// Monte-Carlo trials (kMonteCarloIc only).
  size_t trials = 64;
  /// Diffusion truncation: rounds for every estimator (< 0 = run to
  /// quiescence for MC and sketch; exact requires >= 0; the sketch's
  /// horizon must match). The paper evaluates j = 1.
  int max_steps = 1;
  /// RNG base key for kMonteCarloIc — same seed, same estimate, on any
  /// worker thread.
  uint64_t seed = 0;
};

/// Answer to one query. Reused across queries by the closed-loop harness:
/// Execute() clears and refills the vectors, so a warm response at steady
/// capacity costs no allocation.
struct QueryResponse {
  QueryType type = QueryType::kTopK;
  /// Identity of the ModelSnapshot that answered (0 = no snapshot was
  /// involved, i.e. pure spread queries). Every response is attributable
  /// to exactly one snapshot — the hot-swap torture test's invariant.
  uint64_t snapshot_id = 0;
  /// kTopK: the selected seeds, best first.
  std::vector<NodeId> seeds;
  /// kTopK: logits aligned with `seeds`. kMarginalGain: per-candidate
  /// gains aligned with request.candidates.
  std::vector<double> values;
  /// kSpread: the estimate. kTopK/kMarginalGain: spread of the returned /
  /// base seed set under the request's estimator.
  double spread = 0.0;

  void Clear() {
    snapshot_id = 0;
    seeds.clear();
    values.clear();
    spread = 0.0;
  }
};

/// Validates a request against a resident graph with `num_nodes` nodes:
/// node ids in range, k >= 1, trials >= 1 for MC, max_steps >= 0 for the
/// exact estimator. Returns InvalidArgument with a field-path message.
Status ValidateRequest(const QueryRequest& request, size_t num_nodes);

}  // namespace privim

#endif  // PRIVIM_SERVE_REQUEST_H_
