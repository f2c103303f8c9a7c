#ifndef PRIVIM_SERVE_QUERY_ENGINE_H_
#define PRIVIM_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "im/rr_sets.h"
#include "runtime/scratch.h"
#include "serve/request.h"
#include "serve/snapshot.h"

namespace privim {

/// One worker's query-execution core: every piece of reusable state a
/// query needs — the epoch-stamped diffusion workspace (whose membership
/// set also de-duplicates top-k candidates), the sketch-coverage set, and
/// the ranking/seed staging buffers.
/// State persists across queries, which is the serving layer's performance
/// contract: once every query type has run once (a warm engine), Execute
/// performs ZERO heap allocations, gated in CI by bench_micro's
/// ServeSteadyStateAllocs case exactly like the compiled-plan trainer path.
///
/// The engine runs no inference. The snapshot ranked every node when it
/// was built (serve/snapshot.h), so top-k over the whole graph copies the
/// first k entries of that ranking (O(k)), and top-k over a candidate set
/// gathers the candidates and partially sorts them under the snapshot's
/// order (O(|C|) + O(|C| log k)).
///
/// Thread-safety: none — one engine per worker slot, exclusive use
/// (Server guarantees this; the slot protocol of ParallelForWithSlots is
/// the same idea). The graph, snapshot, and sketch arguments are immutable
/// shared state and safe to read from any number of engines concurrently.
///
/// The graph is an Execute() argument, not a constructor binding, because
/// the dynamic pipeline hot-swaps the resident graph together with the
/// model (Server::SwapGraphAndSnapshot): the Server hands each batch one
/// consistent (graph, snapshot, sketch) triple. All graph reads inside go
/// through the im/diffusion.h GraphView seam, so an engine pointed at an
/// overlaid view would see the delta (docs/streaming.md).
///
/// Determinism: every answer is a pure function of (snapshot, resident
/// graph/sketch, request) — Monte-Carlo trials draw counter-derived
/// streams from request.seed, and top-k ties break on node id — so
/// responses are reproducible regardless of which worker served them or
/// what was cached. The hot-swap torture test leans on exactly this.
class QueryEngine {
 public:
  QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Validates and executes one query against `graph`, filling `response`
  /// (cleared first).
  ///
  /// `snapshot` may be null unless the query needs the model (kTopK);
  /// `sketch` may be null unless the request selects the kRrSketch
  /// estimator. Both must have been built against `graph`. On error the
  /// response is left cleared and the status explains which precondition
  /// failed.
  Status Execute(const Graph& graph, const ModelSnapshot* snapshot,
                 const RrSketch* sketch, const QueryRequest& request,
                 QueryResponse& response);

  /// Scratch-reuse statistics of the engine's diffusion workspace
  /// (delta since last call); the Server flushes these into the metrics
  /// registry as serve.ws.* counters.
  WorkspacePool::Stats TakeWorkspaceStats() {
    return workspaces_.TakeStats();
  }

 private:
  Status ExecuteTopK(const Graph& graph, const ModelSnapshot& snapshot,
                     const RrSketch* sketch, const QueryRequest& request,
                     QueryResponse& response);
  Status ExecuteSpread(const Graph& graph, const RrSketch* sketch,
                       const QueryRequest& request, QueryResponse& response);
  Status ExecuteMarginalGain(const Graph& graph, const RrSketch* sketch,
                             const QueryRequest& request,
                             QueryResponse& response);

  /// Spread of `seeds` under the request's estimator. `stream_offset`
  /// partitions request.seed's stream space between the estimates of one
  /// query (base set vs. each marginal candidate).
  Result<double> EstimateSpreadFor(const Graph& graph,
                                   std::span<const NodeId> seeds,
                                   const RrSketch* sketch,
                                   const QueryRequest& request,
                                   uint64_t stream_offset);

  /// Diffusion scratch behind a one-slot pool so the stats plumbing
  /// matches the samplers' (WorkspacePool::TakeStats).
  WorkspacePool workspaces_;
  /// Coverage set for the RR-sketch estimator — separate from the
  /// workspace's node-indexed sets because it is indexed by RR-set id
  /// (different size => separate stamp domain keeps resets O(1)).
  VisitedSet sketch_covered_;
  /// Ranking scratch: the top-k candidates, partially sorted.
  std::vector<NodeId> rank_;
  /// Seed-set staging for marginal-gain estimates (base set + candidate).
  std::vector<NodeId> seed_buf_;
};

}  // namespace privim

#endif  // PRIVIM_SERVE_QUERY_ENGINE_H_
