#ifndef PRIVIM_IM_RR_SETS_H_
#define PRIVIM_IM_RR_SETS_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "runtime/scratch.h"

namespace privim {

/// Reverse-reachable (RR) sketches for the IC model — the "sampling-based"
/// family of traditional IM solvers the paper cites (Tang et al., SIGMOD'15).
/// One RR set is the set of nodes that reach a uniformly random target in a
/// random live-edge realization; a seed set's expected spread equals
/// |V| * Pr[an RR set is hit], so greedy max-coverage over enough RR sets is
/// a (1 - 1/e - eps)-approximate IM solver that scales to large graphs.
///
/// PrivIM uses CELF as its exact ground truth in the paper's deterministic
/// w=1/j=1 setting; the RR machinery provides the general-weight ground
/// truth (and a scalability baseline) for everything else.

/// A collection of RR sets over a fixed graph, drawn at one step horizon.
///
/// Step horizon j (`max_steps`): the reverse BFS expands only the nodes at
/// depth < j, so an RR set holds the nodes with a live path of at most j
/// arcs to its target, and |V| * Pr[hit] is the j-step truncated IC spread
/// (activation time in IC equals live-edge BFS distance from the seeds;
/// the j-hop truncation of Borgs et al., SODA'14). At j = 1 a set is its
/// target plus the target's live in-neighbours; on unit weights the
/// estimate is then the paper's 1-step coverage |S ∪ N_out(S)|. A negative
/// j means unbounded: full-length IC cascades.
class RrSketch {
 public:
  /// Samples `count` RR sets of `g` (must have at least one node) at step
  /// horizon `max_steps` (negative = unbounded). Consumes exactly one draw
  /// of `rng` (a substream base key); RR set s draws its target and its
  /// reverse BFS from its own child stream and sets are committed in index
  /// order, so the sketch is bit-identical for every `num_threads` (0 =
  /// global runtime default).
  static Result<RrSketch> Generate(const Graph& g, size_t count,
                                   int max_steps, Rng& rng,
                                   size_t num_threads = 0);

  /// As above over a GraphView (base graph + optional GraphDelta overlay).
  /// The view's in-edge merge presents sources in the same ascending order
  /// the compacted graph would, so the sketch is bit-identical to
  /// generating on `GraphDelta::Compact()`'s output with the same rng.
  static Result<RrSketch> Generate(const GraphView& g, size_t count,
                                   int max_steps, Rng& rng,
                                   size_t num_threads = 0);

  /// Rebuilds a sketch from a saved `stream_base()` WITHOUT consuming a
  /// parent draw — the checkpoint/resume path, and the reference
  /// "from-scratch rebuild at the same RNG stream" the incremental Repair
  /// below is tested bit-identical against.
  static Result<RrSketch> Regenerate(const GraphView& g, size_t count,
                                     int max_steps, uint64_t stream_base,
                                     size_t num_threads = 0);

  /// Incrementally repairs the sketch after the viewed graph changed.
  /// `changed_in_rows` lists the nodes whose *in*-rows differ from the
  /// graph this sketch was generated (or last repaired) on.
  ///
  /// Invalidation rule (docs/streaming.md): RR set s consumes RNG draws
  /// only for the in-edges of its *expanded* nodes (depth < max_steps), in
  /// visit order, from its private child stream
  /// `FromStreamKey(stream_base, s)`. A set is therefore stale iff one of
  /// its expanded nodes had its in-row changed — new arcs into an
  /// unvisited node, or into a node at depth max_steps whose in-row is
  /// never read, cannot affect it, and untouched sets replay their draws
  /// identically. At j = 1 only the target is expanded. Stale sets are
  /// regenerated from their original child streams, so the repaired
  /// sketch is bit-identical to Regenerate(g, num_sets, max_steps,
  /// stream_base) from scratch. A node-count change rebuilds everything
  /// (every set's target draw shifts).
  ///
  /// Returns the number of sets regenerated (== num_sets() on a full
  /// rebuild) — the O(ball) locality metric BM_StreamUpdate gates on.
  Result<size_t> Repair(const GraphView& g,
                        std::span<const NodeId> changed_in_rows,
                        size_t num_threads = 0);

  /// The substream base key this sketch's sets were drawn from
  /// (checkpointed by the stream pipeline; feed back into Regenerate).
  uint64_t stream_base() const { return stream_base_; }

  /// The step horizon the sets were drawn at (-1 = unbounded).
  int max_steps() const { return max_steps_; }
  size_t num_sets() const { return sets_.size(); }
  size_t num_nodes() const { return num_nodes_; }
  /// Each set in BFS order: its target first, nodes by nondecreasing depth.
  const std::vector<std::vector<NodeId>>& sets() const { return sets_; }
  /// Per set, the length of its expanded prefix (the nodes at depth
  /// < max_steps, whose in-rows the set's draws read); the whole set when
  /// unbounded.
  const std::vector<uint32_t>& expanded() const { return expanded_; }

  /// Unbiased spread estimate: |V| * (covered RR sets / total RR sets).
  double EstimateSpread(const std::vector<NodeId>& seeds) const;

  /// As above, against an epoch-stamped coverage set (reset here to
  /// num_sets()): identical value, O(1) re-initialization once warm. The
  /// serving layer keeps one `covered` set per worker so a resident sketch
  /// answers spread queries without per-query allocation.
  double EstimateSpread(std::span<const NodeId> seeds,
                        VisitedSet& covered) const;

  /// Greedy max-coverage over the sketch: returns k seeds with the usual
  /// (1 - 1/e)-approximation w.r.t. the sketch coverage. Fails if
  /// k > num_nodes().
  Result<std::vector<NodeId>> SelectSeeds(size_t k) const;

 private:
  /// Shared backend of Generate/Regenerate: samples sets [0, count) from
  /// the child streams of `stream_base`.
  static Result<RrSketch> GenerateImpl(const GraphView& g, size_t count,
                                       int max_steps, uint64_t stream_base,
                                       size_t num_threads);
  /// Regenerates the listed sets from their child streams and rebuilds
  /// the inverted index.
  void RebuildSets(const GraphView& g, std::span<const uint32_t> set_ids,
                   size_t num_threads);
  void RebuildInvertedIndex();

  size_t num_nodes_ = 0;
  int max_steps_ = -1;
  uint64_t stream_base_ = 0;
  std::vector<std::vector<NodeId>> sets_;
  std::vector<uint32_t> expanded_;
  /// Repair's changed-row membership, epoch-stamped so a warm repair does
  /// not re-zero an O(n) array.
  VisitedSet changed_;
  /// For each node, the indices of RR sets containing it (inverted index).
  std::vector<std::vector<uint32_t>> node_to_sets_;
};

}  // namespace privim

#endif  // PRIVIM_IM_RR_SETS_H_
