// Top-k byte identity: a snapshot ranks every node once, at build time,
// and the engine answers top-k from that ranking. This suite pins the
// answers to the per-request definition of top-k — compile the snapshot
// model's seed-logits plan, run one forward pass over the whole graph,
// and partially sort (logit, node) pairs under (logit desc, id asc) —
// on a fixed request log over every GNN backbone. Seeds, values, spread
// and snapshot id must match exactly, not within a tolerance.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "nn/gnn.h"
#include "nn/graph_context.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "tensor/plan.h"

namespace privim {
namespace {

constexpr size_t kNodes = 40;

Graph TestGraph() {
  Rng rng(11);
  return std::move(ErdosRenyi(kNodes, 0.15, true, rng)).ValueOrDie();
}

std::shared_ptr<const ModelSnapshot> MakeSnapshot(const Graph& g,
                                                  GnnType type,
                                                  bool zero_params) {
  GnnConfig cfg;
  cfg.type = type;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  Rng rng(static_cast<uint64_t>(type) + 3);
  auto model = std::make_unique<GnnModel>(cfg, rng);
  if (zero_params) {
    const std::vector<float> zeros(model->params().num_scalars(), 0.0f);
    model->params().LoadParams(zeros);
  }
  return std::move(ModelSnapshot::FromModel(std::move(model), g))
      .ValueOrDie();
}

/// The fixed request log: whole-graph top-k at k < n, k = n and k > n,
/// and candidate-restricted top-k at k < |C|, k = |C| and k > |C|, with
/// the spread estimated exactly or by Monte Carlo.
std::vector<QueryRequest> RequestLog() {
  const std::vector<NodeId> candidates = {17, 3, 29, 8, 36,
                                          0,  22, 11, 39, 5};
  std::vector<QueryRequest> log;
  const auto add = [&log](size_t k, std::vector<NodeId> cands) {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = k;
    req.candidates = std::move(cands);
    req.max_steps = 1;
    if (log.size() % 2 == 1) {
      req.estimator = SpreadEstimator::kMonteCarloIc;
      req.trials = 4;
      req.seed = log.size();
    }
    log.push_back(std::move(req));
  };
  add(5, {});
  add(3, candidates);
  add(candidates.size(), candidates);
  add(candidates.size() + 4, candidates);
  add(kNodes, {});
  add(kNodes + 7, {});
  return log;
}

/// Per-request reference: one full-graph forward pass through a freshly
/// compiled logits plan, then a partial sort of (logit, node) pairs.
std::vector<float> ReferenceLogits(const ModelSnapshot& snapshot,
                                   const Graph& g) {
  const GraphContext ctx = BuildGraphContext(g);
  const Matrix features = BuildNodeFeatures(g);
  std::vector<float> flat(snapshot.model().params().num_scalars());
  snapshot.model().params().FlattenParams(flat);
  PlanBuilder pb;
  const PlanValId x =
      pb.Input(ctx.num_nodes, snapshot.model().config().in_dim);
  const GnnPlan plan = pb.Build(snapshot.model().LowerLogits(pb, ctx, x),
                                PlanOptions::Native());
  PlanArena arena;
  plan.Forward(flat, features, arena);
  const std::span<const float> out = plan.Output(arena);
  return std::vector<float>(out.begin(), out.end());
}

QueryResponse ReferenceTopK(const Graph& g, const ModelSnapshot& snapshot,
                            std::span<const float> logits,
                            const QueryRequest& request) {
  std::vector<std::pair<float, uint32_t>> rank;
  if (request.candidates.empty()) {
    for (uint32_t u = 0; u < g.num_nodes(); ++u) {
      rank.emplace_back(logits[u], u);
    }
  } else {
    for (NodeId c : request.candidates) rank.emplace_back(logits[c], c);
  }
  const size_t k = std::min(request.k, rank.size());
  std::partial_sort(rank.begin(), rank.begin() + k, rank.end(),
                    [](const std::pair<float, uint32_t>& a,
                       const std::pair<float, uint32_t>& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  QueryResponse ref;
  ref.type = QueryType::kTopK;
  ref.snapshot_id = snapshot.id();
  for (size_t i = 0; i < k; ++i) {
    ref.seeds.push_back(rank[i].second);
    ref.values.push_back(static_cast<double>(rank[i].first));
  }
  // The spread of the selected seeds is the spread query over them.
  QueryRequest spread_req = request;
  spread_req.type = QueryType::kSpread;
  spread_req.candidates.clear();
  spread_req.seeds = ref.seeds;
  QueryEngine engine;
  QueryResponse spread_resp;
  EXPECT_TRUE(
      engine.Execute(g, nullptr, nullptr, spread_req, spread_resp).ok());
  ref.spread = spread_resp.spread;
  return ref;
}

void ExpectLogMatchesReference(const Graph& g,
                               const ModelSnapshot& snapshot) {
  const std::vector<float> logits = ReferenceLogits(snapshot, g);
  ASSERT_EQ(snapshot.logits().size(), logits.size());
  QueryEngine engine;  // One warm engine serves the whole log.
  QueryResponse got;
  const std::vector<QueryRequest> log = RequestLog();
  for (size_t i = 0; i < log.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "request " << i);
    ASSERT_TRUE(engine.Execute(g, &snapshot, nullptr, log[i], got).ok());
    const QueryResponse want = ReferenceTopK(g, snapshot, logits, log[i]);
    EXPECT_EQ(got.snapshot_id, want.snapshot_id);
    EXPECT_EQ(got.seeds, want.seeds);
    EXPECT_EQ(got.values, want.values);
    EXPECT_EQ(got.spread, want.spread);
  }
}

class TopKIdentityTest : public ::testing::TestWithParam<GnnType> {};

TEST_P(TopKIdentityTest, MatchesPerRequestForward) {
  const Graph g = TestGraph();
  ExpectLogMatchesReference(g, *MakeSnapshot(g, GetParam(), false));
}

TEST_P(TopKIdentityTest, AllEqualLogitsRankInIdOrder) {
  const Graph g = TestGraph();
  const std::shared_ptr<const ModelSnapshot> snap =
      MakeSnapshot(g, GetParam(), true);
  const std::span<const float> logits = snap->logits();
  ASSERT_TRUE(std::all_of(logits.begin(), logits.end(),
                          [&](float v) { return v == logits[0]; }));
  for (NodeId u = 0; u < kNodes; ++u) EXPECT_EQ(snap->ranked()[u], u);
  ExpectLogMatchesReference(g, *snap);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackbones, TopKIdentityTest,
    ::testing::Values(GnnType::kGcn, GnnType::kSage, GnnType::kGin,
                      GnnType::kGat, GnnType::kGrat),
    [](const ::testing::TestParamInfo<GnnType>& info) {
      return GnnTypeName(info.param);
    });

}  // namespace
}  // namespace privim
