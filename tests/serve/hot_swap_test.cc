// Snapshot hot-swap torture: many client threads query while a swapper
// thread flips the published snapshot as fast as it can. The invariants —
// checked for every single response — are the serving layer's correctness
// contract under swap:
//
//   1. Attribution: every response carries the id of exactly one of the
//      published snapshots (no torn or mixed answers).
//   2. Determinism: a response is a pure function of (snapshot, request
//      seed) — it equals the answer a standalone warm QueryEngine computes
//      for that same snapshot, bit for bit.
//
// Runs at 2 and 8 worker threads; tools/run_tsan.sh puts this binary on
// the TSan rung, where the swap path's synchronization is the subject
// under test.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "serve/query_engine.h"
#include "serve/server.h"

namespace privim {
namespace {

GnnConfig SmallConfig() {
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  return cfg;
}

std::shared_ptr<const ModelSnapshot> MakeSnapshot(const Graph& g,
                                                  uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_unique<GnnModel>(SmallConfig(), rng);
  return std::move(ModelSnapshot::FromModel(std::move(model), g))
      .ValueOrDie();
}

/// The request variants clients cycle through; a mix of estimators keeps
/// both the ranking and the diffusion scratch hot across swaps.
std::vector<QueryRequest> Variants() {
  std::vector<QueryRequest> variants;
  for (uint64_t s = 0; s < 4; ++s) {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = 6;
    req.estimator =
        (s % 2 == 0) ? SpreadEstimator::kExact
                     : SpreadEstimator::kMonteCarloIc;
    req.trials = 4;
    req.max_steps = 1;
    req.seed = s;
    variants.push_back(std::move(req));
  }
  return variants;
}

struct Expected {
  std::vector<NodeId> seeds;
  std::vector<double> values;
  double spread = 0.0;
};

void TortureAt(size_t num_threads) {
  Rng graph_rng(77);
  Graph g = std::move(ErdosRenyi(60, 0.1, true, graph_rng)).ValueOrDie();
  const auto snap_a = MakeSnapshot(g, 101);
  const auto snap_b = MakeSnapshot(g, 202);
  ASSERT_NE(snap_a->id(), snap_b->id());

  // Ground truth per (snapshot, variant), computed on a standalone engine
  // before any concurrency exists.
  const std::vector<QueryRequest> variants = Variants();
  std::map<uint64_t, std::vector<Expected>> expected;
  {
    QueryEngine engine;
    for (const auto& snap : {snap_a, snap_b}) {
      std::vector<Expected>& per_variant = expected[snap->id()];
      for (const QueryRequest& req : variants) {
        QueryResponse resp;
        ASSERT_TRUE(
            engine.Execute(g, snap.get(), nullptr, req, resp).ok());
        per_variant.push_back(
            Expected{resp.seeds, resp.values, resp.spread});
      }
    }
  }

  ServeConfig cfg;
  cfg.num_threads = num_threads;
  cfg.queue_capacity = 256;
  Server server(g, cfg);
  ASSERT_TRUE(server.SwapSnapshot(snap_a).ok());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop_swapping{false};
  std::atomic<size_t> swaps{0};
  std::thread swapper([&] {
    bool use_a = false;
    while (!stop_swapping.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(server.SwapSnapshot(use_a ? snap_a : snap_b).ok());
      swaps.fetch_add(1, std::memory_order_relaxed);
      use_a = !use_a;
    }
  });
  // Clients start once the swapper is running, and each keeps querying
  // past its quota until a swap has completed since they started, so at
  // least one swap overlaps the queries however a loaded scheduler orders
  // the threads. The deadline only bounds a swapper that stalled; the
  // check after the clients join reports it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (swaps.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  constexpr size_t kClients = 4;
  constexpr size_t kQueriesPerClient = 50;
  const size_t swaps_at_start = swaps.load();
  const auto keep_querying = [&](size_t i) {
    return i < kQueriesPerClient ||
           (swaps.load(std::memory_order_relaxed) == swaps_at_start &&
            std::chrono::steady_clock::now() < deadline);
  };

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryResponse resp;
      for (size_t i = 0; keep_querying(i); ++i) {
        const size_t v = (c + i) % variants.size();
        const Status s = server.Query(variants[v], resp);
        if (!s.ok()) {
          failures[c] = "query failed: " + s.ToString();
          return;
        }
        const auto it = expected.find(resp.snapshot_id);
        if (it == expected.end()) {
          failures[c] = "response from unknown snapshot id " +
                        std::to_string(resp.snapshot_id);
          return;
        }
        const Expected& want = it->second[v];
        if (resp.seeds != want.seeds || resp.values != want.values ||
            resp.spread != want.spread) {
          failures[c] = "response diverged from snapshot " +
                        std::to_string(resp.snapshot_id) +
                        "'s deterministic answer (variant " +
                        std::to_string(v) + ")";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const size_t swaps_when_done = swaps.load();
  stop_swapping.store(true);
  swapper.join();
  server.Stop();

  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": "
                                     << failures[c];
  }
  EXPECT_GT(swaps_when_done, swaps_at_start)
      << "no swap completed while the clients were querying";
}

TEST(HotSwapTortureTest, TwoWorkers) { TortureAt(2); }

TEST(HotSwapTortureTest, EightWorkers) { TortureAt(8); }

TEST(HotSwapTortureTest, InFlightQueriesKeepOldSnapshotAlive) {
  // Structural variant of the refcount contract: after a swap, the old
  // snapshot object survives as long as someone holds it (here: the test,
  // standing in for an in-flight query) and its answers stay valid.
  Rng graph_rng(5);
  Graph g = std::move(ErdosRenyi(30, 0.15, true, graph_rng)).ValueOrDie();
  auto snap_a = MakeSnapshot(g, 1);
  const uint64_t id_a = snap_a->id();
  std::weak_ptr<const ModelSnapshot> weak_a = snap_a;

  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(g, cfg);
  ASSERT_TRUE(server.SwapSnapshot(snap_a).ok());

  // A reader takes a reference (as a worker batch would)...
  std::shared_ptr<const ModelSnapshot> in_flight = server.CurrentSnapshot();
  // ...then the snapshot is replaced and the builder's handle dropped.
  ASSERT_TRUE(server.SwapSnapshot(MakeSnapshot(g, 2)).ok());
  snap_a.reset();

  EXPECT_FALSE(weak_a.expired());  // The in-flight reference keeps it.
  EXPECT_EQ(in_flight->id(), id_a);
  EXPECT_NE(server.CurrentSnapshot()->id(), id_a);

  in_flight.reset();
  EXPECT_TRUE(weak_a.expired());  // Last reference released it.
}

}  // namespace
}  // namespace privim
