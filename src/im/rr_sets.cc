#include "im/rr_sets.h"

#include <algorithm>

#include "common/string_util.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_streams.h"
#include "runtime/runtime.h"
#include "runtime/scratch.h"

namespace privim {
namespace {

/// One reverse-BFS RR sample into ws.nodes; returns the length of its
/// expanded prefix. Only nodes at depth < max_steps (all of them when
/// max_steps < 0) have their in-edges walked, so nodes at depth max_steps
/// consume no draws. The view's in-edge merge presents sources in the same
/// ascending order as the compacted CSR row, so the per-in-edge Bernoulli
/// draw sequence — and therefore the set — is bit-identical whether the
/// view wraps a plain graph, an overlay, or the overlay's compaction.
size_t BuildOneRrSet(const GraphView& g, size_t num_nodes, int max_steps,
                     Rng& set_rng, Workspace& ws) {
  const NodeId target = static_cast<NodeId>(set_rng.UniformInt(num_nodes));
  // Reverse BFS along *in*-edges; each edge is live independently with its
  // IC probability (deferred live-edge sampling). ws.nodes doubles as the
  // FIFO frontier, consumed through a cursor; FIFO order keeps the nodes
  // in nondecreasing depth, so the expanded nodes form a prefix.
  ws.nodes.clear();
  ws.nodes.push_back(target);
  ws.visited.Reset(num_nodes);
  ws.visited.Insert(target);
  int depth = 0;
  size_t depth_end = 1;  // One past the last node at `depth`.
  size_t cursor = 0;
  for (; cursor < ws.nodes.size(); ++cursor) {
    if (cursor == depth_end) {
      ++depth;
      depth_end = ws.nodes.size();
    }
    if (max_steps >= 0 && depth >= max_steps) break;
    const NodeId v = ws.nodes[cursor];
    g.ForEachInEdge(v, [&ws, &set_rng](NodeId u, float w) {
      if (!ws.visited.Contains(u) && set_rng.Bernoulli(w)) {
        ws.visited.Insert(u);
        ws.nodes.push_back(u);
      }
    });
  }
  return cursor;
}

Status ValidateGenerateArgs(const GraphView& g, size_t count) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  if (count == 0) {
    return Status::InvalidArgument("RR set count must be positive");
  }
  if (!g.base().has_in_csr()) {
    return Status::FailedPrecondition(
        "RR-set generation walks in-edges; call Graph::EnsureInCsr() on "
        "graphs built without the in-CSR");
  }
  return Status::OK();
}

}  // namespace

Result<RrSketch> RrSketch::Generate(const Graph& g, size_t count,
                                    int max_steps, Rng& rng,
                                    size_t num_threads) {
  return Generate(GraphView(g), count, max_steps, rng, num_threads);
}

Result<RrSketch> RrSketch::Generate(const GraphView& g, size_t count,
                                    int max_steps, Rng& rng,
                                    size_t num_threads) {
  // Validate before constructing the streams: the parent draw is consumed
  // only on (potential) success, as the pre-GraphView implementation did.
  PRIVIM_RETURN_NOT_OK(ValidateGenerateArgs(g, count));
  RngStreams streams(rng);
  return GenerateImpl(g, count, max_steps, streams.base_key(), num_threads);
}

Result<RrSketch> RrSketch::Regenerate(const GraphView& g, size_t count,
                                      int max_steps, uint64_t stream_base,
                                      size_t num_threads) {
  return GenerateImpl(g, count, max_steps, stream_base, num_threads);
}

Result<RrSketch> RrSketch::GenerateImpl(const GraphView& g, size_t count,
                                        int max_steps, uint64_t stream_base,
                                        size_t num_threads) {
  PRIVIM_RETURN_NOT_OK(ValidateGenerateArgs(g, count));
  RrSketch sketch;
  sketch.num_nodes_ = g.num_nodes();
  sketch.max_steps_ = max_steps < 0 ? -1 : max_steps;
  sketch.stream_base_ = stream_base;
  sketch.sets_.resize(count);
  sketch.expanded_.resize(count);

  // RR sets are independent given their child streams; the inverted index
  // is built serially in set order below, so the sketch is a pure function
  // of (graph, max_steps, stream_base) regardless of the thread count.
  std::vector<uint32_t> all_sets(count);
  for (size_t s = 0; s < count; ++s) all_sets[s] = static_cast<uint32_t>(s);
  sketch.RebuildSets(g, all_sets, num_threads);
  sketch.RebuildInvertedIndex();
  return sketch;
}

void RrSketch::RebuildSets(const GraphView& g,
                           std::span<const uint32_t> set_ids,
                           size_t num_threads) {
  const RngStreams streams = RngStreams::FromBaseKey(stream_base_);
  const size_t threads = ResolveNumThreads(num_threads);
  ThreadPool* pool = SharedPool(threads);
  const size_t num_slots = pool == nullptr ? 1 : threads;
  // Epoch-stamped visited set per slot: the logical clear between RR sets
  // is O(1) instead of the O(n) re-zero that used to dominate small sets.
  WorkspacePool workspaces;
  workspaces.EnsureSlots(num_slots);
  const size_t num_nodes = g.num_nodes();

  ParallelForWithSlots(
      pool, 0, set_ids.size(), /*grain=*/8, num_slots,
      [&](size_t i, size_t slot) {
        const uint32_t s = set_ids[i];
        Rng set_rng = streams.Stream(s);
        Workspace& ws = workspaces.Acquire(slot);
        expanded_[s] = static_cast<uint32_t>(
            BuildOneRrSet(g, num_nodes, max_steps_, set_rng, ws));
        sets_[s].assign(ws.nodes.begin(), ws.nodes.end());
      });
}

void RrSketch::RebuildInvertedIndex() {
  node_to_sets_.assign(num_nodes_, {});
  for (size_t s = 0; s < sets_.size(); ++s) {
    for (NodeId u : sets_[s]) {
      node_to_sets_[u].push_back(static_cast<uint32_t>(s));
    }
  }
}

Result<size_t> RrSketch::Repair(const GraphView& g,
                                std::span<const NodeId> changed_in_rows,
                                size_t num_threads) {
  if (sets_.empty()) {
    return Status::FailedPrecondition("cannot repair an empty sketch");
  }
  if (g.num_nodes() != num_nodes_) {
    // Every set's target draw is UniformInt(num_nodes): a node-count
    // change shifts all of them, so the only stream-faithful repair is a
    // full rebuild from the original base key.
    Result<RrSketch> rebuilt =
        Regenerate(g, sets_.size(), max_steps_, stream_base_, num_threads);
    PRIVIM_RETURN_NOT_OK(rebuilt.status());
    *this = std::move(rebuilt).ValueOrDie();
    return sets_.size();
  }
  if (changed_in_rows.empty()) return size_t{0};

  changed_.Reset(num_nodes_);
  for (NodeId v : changed_in_rows) {
    if (v >= num_nodes_) {
      return Status::OutOfRange(StrFormat(
          "changed in-row %u out of range for %zu nodes", v, num_nodes_));
    }
    changed_.Insert(v);
  }
  // A set replays its draws identically unless one of its expanded nodes
  // had its in-row changed (rr_sets.h has the argument), so those are
  // exactly the sets to regenerate.
  std::vector<uint32_t> dirty;
  for (size_t s = 0; s < sets_.size(); ++s) {
    const std::span<const NodeId> read(sets_[s].data(), expanded_[s]);
    for (NodeId u : read) {
      if (changed_.Contains(u)) {
        dirty.push_back(static_cast<uint32_t>(s));
        break;
      }
    }
  }
  if (dirty.empty()) return size_t{0};
  RebuildSets(g, dirty, num_threads);
  RebuildInvertedIndex();
  return dirty.size();
}

double RrSketch::EstimateSpread(const std::vector<NodeId>& seeds) const {
  PRIVIM_CHECK_GT(sets_.size(), 0u);
  std::vector<uint8_t> covered(sets_.size(), 0);
  size_t hit = 0;
  for (NodeId s : seeds) {
    PRIVIM_CHECK_LT(s, num_nodes_);
    for (uint32_t set_id : node_to_sets_[s]) {
      if (!covered[set_id]) {
        covered[set_id] = 1;
        ++hit;
      }
    }
  }
  return static_cast<double>(num_nodes_) * static_cast<double>(hit) /
         static_cast<double>(sets_.size());
}

double RrSketch::EstimateSpread(std::span<const NodeId> seeds,
                                VisitedSet& covered) const {
  PRIVIM_CHECK_GT(sets_.size(), 0u);
  covered.Reset(sets_.size());
  size_t hit = 0;
  for (NodeId s : seeds) {
    PRIVIM_CHECK_LT(s, num_nodes_);
    for (uint32_t set_id : node_to_sets_[s]) {
      if (!covered.Contains(set_id)) {
        covered.Insert(set_id);
        ++hit;
      }
    }
  }
  return static_cast<double>(num_nodes_) * static_cast<double>(hit) /
         static_cast<double>(sets_.size());
}

Result<std::vector<NodeId>> RrSketch::SelectSeeds(size_t k) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > num_nodes_) {
    return Status::InvalidArgument(
        StrFormat("k=%zu exceeds node count %zu", k, num_nodes_));
  }
  // Greedy max coverage with exact gain maintenance: gains[u] = number of
  // still-uncovered RR sets containing u.
  std::vector<size_t> gains(num_nodes_, 0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    gains[u] = node_to_sets_[u].size();
  }
  std::vector<uint8_t> covered(sets_.size(), 0);
  std::vector<uint8_t> chosen(num_nodes_, 0);
  std::vector<NodeId> seeds;
  seeds.reserve(k);
  for (size_t round = 0; round < k; ++round) {
    NodeId best = 0;
    size_t best_gain = 0;
    bool found = false;
    for (NodeId u = 0; u < num_nodes_; ++u) {
      if (chosen[u]) continue;
      if (!found || gains[u] > best_gain) {
        best = u;
        best_gain = gains[u];
        found = true;
      }
    }
    PRIVIM_CHECK(found);
    chosen[best] = 1;
    seeds.push_back(best);
    // Cover best's sets and decrement every member's gain.
    for (uint32_t set_id : node_to_sets_[best]) {
      if (covered[set_id]) continue;
      covered[set_id] = 1;
      for (NodeId member : sets_[set_id]) {
        if (gains[member] > 0) --gains[member];
      }
    }
  }
  return seeds;
}

}  // namespace privim
