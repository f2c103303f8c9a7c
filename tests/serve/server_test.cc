#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "nn/serialization.h"
#include "obs/metrics.h"
#include "serve/harness.h"

namespace privim {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GnnConfig SmallConfig() {
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  return cfg;
}

Graph TestGraph(uint64_t seed = 7) {
  Rng rng(seed);
  return std::move(ErdosRenyi(40, 0.15, true, rng)).ValueOrDie();
}

std::shared_ptr<const ModelSnapshot> TestSnapshot(const Graph& g,
                                                  uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_unique<GnnModel>(SmallConfig(), rng);
  return std::move(ModelSnapshot::FromModel(std::move(model), g))
      .ValueOrDie();
}

/// The sketch a server configured by `cfg` holds for `g`: drawn at the
/// server's seed and size and at the default request horizon, j = 1
/// (bit-identical at any thread count).
RrSketch ReferenceSketch(const Graph& g, const ServeConfig& cfg) {
  Rng rng(cfg.rr_sketch_seed);
  return std::move(RrSketch::Generate(g, cfg.rr_sketch_sets,
                                      QueryRequest{}.max_steps, rng))
      .ValueOrDie();
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : graph_(TestGraph()) {}

  Graph graph_;
};

TEST_F(ServerTest, AnswersEachQueryType) {
  ServeConfig cfg;
  cfg.num_threads = 2;
  cfg.rr_sketch_sets = 64;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 1)).ok());
  ASSERT_TRUE(server.Start().ok());

  QueryResponse resp;
  {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = 5;
    ASSERT_TRUE(server.Query(req, resp).ok());
    EXPECT_EQ(resp.seeds.size(), 5u);
    EXPECT_EQ(resp.values.size(), 5u);
    EXPECT_GT(resp.snapshot_id, 0u);
    EXPECT_GE(resp.spread, 5.0);  // Seeds themselves are activated.
  }
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {0, 1, 2};
    req.estimator = SpreadEstimator::kMonteCarloIc;
    req.trials = 8;
    ASSERT_TRUE(server.Query(req, resp).ok());
    EXPECT_GE(resp.spread, 3.0);
  }
  {
    QueryRequest req;
    req.type = QueryType::kMarginalGain;
    req.seeds = {0, 1};
    req.candidates = {2, 3, 4};
    req.estimator = SpreadEstimator::kRrSketch;
    ASSERT_TRUE(server.Query(req, resp).ok());
    EXPECT_EQ(resp.values.size(), 3u);
    for (double gain : resp.values) EXPECT_GE(gain, 0.0);
    // The resident sketch is the one drawn at the server's seed and
    // horizon.
    const RrSketch ref = ReferenceSketch(graph_, cfg);
    const double base = ref.EstimateSpread(req.seeds);
    EXPECT_EQ(resp.spread, base);
    for (size_t i = 0; i < req.candidates.size(); ++i) {
      std::vector<NodeId> with = req.seeds;
      with.push_back(req.candidates[i]);
      EXPECT_EQ(resp.values[i], ref.EstimateSpread(with) - base);
    }
  }
  server.Stop();
}

TEST_F(ServerTest, SketchEstimatorAnswersOnlyItsHorizon) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  cfg.rr_sketch_sets = 64;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.CurrentSketch()->max_steps(), 1);
  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0, 1};
  req.estimator = SpreadEstimator::kRrSketch;
  QueryResponse resp;
  ASSERT_TRUE(server.Query(req, resp).ok());
  EXPECT_EQ(resp.spread, ReferenceSketch(graph_, cfg).EstimateSpread(
                             req.seeds));

  // Another horizon never gets the j = 1 answer; the status names both.
  for (int steps : {2, 0, -1, -4}) {
    req.max_steps = steps;
    const Status s = server.Query(req, resp);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << steps;
    EXPECT_NE(s.message().find("max_steps=" + std::to_string(steps)),
              std::string::npos)
        << s.message();
    EXPECT_NE(s.message().find("max_steps=1"), std::string::npos)
        << s.message();
  }
  server.Stop();
}

TEST_F(ServerTest, ResponsesAreDeterministicPerSnapshotAndSeed) {
  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = 8;
  req.estimator = SpreadEstimator::kMonteCarloIc;
  req.trials = 16;
  req.seed = 123;

  QueryResponse a;
  QueryResponse b;
  // Same snapshot contents (same model seed), different servers and
  // thread counts: responses must be identical.
  for (size_t threads : {1u, 4u}) {
    ServeConfig cfg;
    cfg.num_threads = threads;
    Server server(graph_, cfg);
    ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 9)).ok());
    ASSERT_TRUE(server.Start().ok());
    QueryResponse& out = (threads == 1u) ? a : b;
    ASSERT_TRUE(server.Query(req, out).ok());
    // Ask twice on the same server too: caches must not leak into
    // answers.
    QueryResponse again;
    ASSERT_TRUE(server.Query(req, again).ok());
    EXPECT_EQ(out.seeds, again.seeds);
    EXPECT_EQ(out.values, again.values);
    EXPECT_EQ(out.spread, again.spread);
    server.Stop();
  }
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.spread, b.spread);
}

TEST_F(ServerTest, TopKWithoutSnapshotFailsWithHint) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kTopK;
  QueryResponse resp;
  const Status s = server.Query(req, resp);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("LoadSnapshot"), std::string::npos);
}

TEST_F(ServerTest, SketchEstimatorWithoutSketchFailsWithHint) {
  ServeConfig cfg;
  cfg.num_threads = 1;  // rr_sketch_sets left 0: no resident sketch.
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0};
  req.estimator = SpreadEstimator::kRrSketch;
  QueryResponse resp;
  const Status s = server.Query(req, resp);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("rr_sketch_sets"), std::string::npos);
}

TEST_F(ServerTest, InvalidRequestsAreRejectedNotExecuted) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  QueryResponse resp;
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {static_cast<NodeId>(graph_.num_nodes())};  // Out of range.
    EXPECT_EQ(server.Query(req, resp).code(),
              StatusCode::kInvalidArgument);
  }
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {0};
    req.estimator = SpreadEstimator::kMonteCarloIc;
    req.trials = 0;
    EXPECT_EQ(server.Query(req, resp).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(ServerTest, TopKRejectsRepeatedCandidates) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 1)).ok());
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = 3;
  req.candidates = {4, 9, 13, 9};
  QueryResponse resp;
  const Status s = server.Query(req, resp);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("node 9"), std::string::npos) << s.message();
  EXPECT_TRUE(resp.seeds.empty());
  EXPECT_EQ(resp.snapshot_id, 0u);

  // The same engine answers the de-duplicated request afterwards.
  req.candidates = {4, 9, 13};
  ASSERT_TRUE(server.Query(req, resp).ok());
  EXPECT_EQ(resp.seeds.size(), 3u);
  server.Stop();
}

TEST_F(ServerTest, MarginalGainAcceptsRepeatedCandidates) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kMarginalGain;
  req.seeds = {0};
  req.candidates = {5, 7, 5};
  QueryResponse resp;
  ASSERT_TRUE(server.Query(req, resp).ok());
  // Gains align with the candidates, so a repeat is answered twice.
  ASSERT_EQ(resp.values.size(), 3u);
  EXPECT_EQ(resp.values[0], resp.values[2]);
  server.Stop();
}

TEST_F(ServerTest, BackpressureRejectsWhenQueueFull) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 2;
  Server server(graph_, cfg);  // Not started: admissions queue up.

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0};
  std::vector<QueryResponse> resps(3);
  std::vector<QueryCompletion> dones(3);
  ASSERT_TRUE(server.SubmitAsync(&req, &resps[0], &dones[0]).ok());
  ASSERT_TRUE(server.SubmitAsync(&req, &resps[1], &dones[1]).ok());
  const Status rejected = server.SubmitAsync(&req, &resps[2], &dones[2]);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  // Starting the server answers the two admitted queries.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(dones[0].Wait().ok());
  EXPECT_TRUE(dones[1].Wait().ok());
  server.Stop();
}

TEST_F(ServerTest, StopDrainsAdmittedQueriesAndRejectsNewOnes) {
  ServeConfig cfg;
  cfg.num_threads = 2;
  cfg.queue_capacity = 64;
  Server server(graph_, cfg);  // Not started yet.

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0, 1};
  constexpr size_t kQueries = 16;
  std::vector<QueryResponse> resps(kQueries);
  std::vector<QueryCompletion> dones(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(server.SubmitAsync(&req, &resps[i], &dones[i]).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  server.Stop();  // Must answer all 16 before returning.
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_TRUE(dones[i].Wait().ok()) << "query " << i;
    EXPECT_GE(resps[i].spread, 2.0) << "query " << i;
  }

  // After Stop, admission is terminally closed.
  QueryResponse resp;
  EXPECT_EQ(server.Query(req, resp).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(server.Start().ok());  // Not restartable.
}

TEST_F(ServerTest, StopWithoutStartAnswersAdmittedQueries) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {3};
  QueryResponse resp;
  QueryCompletion done;
  ASSERT_TRUE(server.SubmitAsync(&req, &resp, &done).ok());
  server.Stop();  // Never started: drains on the stopping thread.
  EXPECT_TRUE(done.Wait().ok());
  EXPECT_GE(resp.spread, 1.0);
}

TEST_F(ServerTest, LoadSnapshotErrorsNameThePath) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  const std::string missing = TempPath("privim_serve_no_such.ckpt");
  const Result<uint64_t> r = server.LoadSnapshot(missing);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(missing), std::string::npos)
      << r.status().ToString();
}

TEST_F(ServerTest, LoadSnapshotServesTheCheckpointedModel) {
  Rng rng(21);
  GnnModel model(SmallConfig(), rng);
  const std::string path = TempPath("privim_serve_load.ckpt");
  ASSERT_TRUE(SaveModel(model, path).ok());

  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  const Result<uint64_t> id = server.LoadSnapshot(path);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_NE(server.CurrentSnapshot(), nullptr);
  EXPECT_EQ(server.CurrentSnapshot()->id(), id.ValueOrDie());
  ASSERT_TRUE(server.Start().ok());

  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = 4;
  QueryResponse resp;
  ASSERT_TRUE(server.Query(req, resp).ok());
  EXPECT_EQ(resp.snapshot_id, id.ValueOrDie());
  server.Stop();
  std::remove(path.c_str());
}

TEST_F(ServerTest, SnapshotRejectsNonFiniteLogits) {
  // A model whose parameters are NaN (a diverged training run) cannot be
  // ranked, so the snapshot build refuses it and names a node.
  Rng rng(22);
  auto nan_model = std::make_unique<GnnModel>(SmallConfig(), rng);
  std::vector<float> flat(nan_model->params().num_scalars(),
                          std::numeric_limits<float>::quiet_NaN());
  nan_model->params().LoadParams(flat);
  const auto built = ModelSnapshot::FromModel(std::move(nan_model), graph_);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("node 0 has a non-finite seed "
                                          "logit"),
            std::string::npos)
      << built.status().ToString();

  // A checkpoint is outside input and LoadModel does not check its
  // values: finite but huge parameters overflow in the forward pass, and
  // the server keeps serving nothing rather than an unrankable snapshot.
  GnnModel huge(SmallConfig(), rng);
  std::fill(flat.begin(), flat.end(), 3e38f);
  huge.params().LoadParams(flat);
  const std::string path = TempPath("privim_serve_overflow.ckpt");
  ASSERT_TRUE(SaveModel(huge, path).ok());
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  const Result<uint64_t> id = server.LoadSnapshot(path);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(id.status().message().find("non-finite seed logit"),
            std::string::npos)
      << id.status().ToString();
  EXPECT_EQ(server.CurrentSnapshot(), nullptr);
  std::remove(path.c_str());
}

TEST_F(ServerTest, SwapSnapshotRejectsWrongGraph) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  Rng rng(31);
  Graph other = std::move(ErdosRenyi(10, 0.3, true, rng)).ValueOrDie();
  const Status s = server.SwapSnapshot(TestSnapshot(other, 1));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.SwapSnapshot(nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, MetricsRecordAcceptsRejectsAndLatency) {
  MetricsRegistry metrics;
  ServeConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;
  cfg.metrics = &metrics;
  Server server(graph_, cfg);  // Not started: deterministic rejection.

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0};
  QueryResponse r1, r2;
  QueryCompletion d1, d2;
  ASSERT_TRUE(server.SubmitAsync(&req, &r1, &d1).ok());
  EXPECT_EQ(server.SubmitAsync(&req, &r2, &d2).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(d1.Wait().ok());
  server.Stop();

  EXPECT_EQ(metrics.GetCounter("serve.requests.accepted")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("serve.requests.rejected")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("serve.requests.completed")->value(), 1u);
  EXPECT_EQ(metrics
                .GetHistogram("serve.latency.spread",
                              ExponentialBuckets(1e-6, 2.0, 24))
                ->total_count(),
            1u);
}

TEST_F(ServerTest, ClosedLoopHarnessReportsThroughputAndQuantiles) {
  ServeConfig cfg;
  cfg.num_threads = 2;
  cfg.rr_sketch_sets = 32;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 5)).ok());
  ASSERT_TRUE(server.Start().ok());

  const std::vector<RequestMix> mixes =
      StandardMixes(graph_.num_nodes(), /*seed=*/11);
  ASSERT_EQ(mixes.size(), 3u);
  LoadConfig load;
  load.num_clients = 2;
  load.requests_per_client = 10;
  load.warmup_per_client = 2;
  for (const RequestMix& mix : mixes) {
    const Result<LoadReport> r = RunClosedLoopLoad(server, mix, load);
    ASSERT_TRUE(r.ok()) << mix.name << ": " << r.status().ToString();
    const LoadReport& report = r.ValueOrDie();
    EXPECT_EQ(report.failed, 0u) << mix.name;
    EXPECT_GT(report.qps, 0.0) << mix.name;
    EXPECT_LE(report.latency_p50, report.latency_p95) << mix.name;
    EXPECT_LE(report.latency_p95, report.latency_p99) << mix.name;
  }
  server.Stop();
}

}  // namespace
}  // namespace privim
