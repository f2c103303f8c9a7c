// The Pipeline facade: serial path bit-identical to RunMethod, sharded
// checkpoint/Resume with per-shard snapshot subdirectories, eager in-CSR
// materialization at Build time, and the concurrent-reader
// proof that shard tasks never race on Graph::EnsureInCsr() (run under
// TSan via the sanitizer ctest label).

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/binary_io.h"
#include "ckpt/checkpoint.h"
#include "core/experiment.h"
#include "core/privim.h"
#include "shard/pipeline.h"
#include "shard/shard_plan.h"

namespace privim {
namespace {

constexpr uint64_t kSeed = 77;
constexpr size_t kSeedCount = 8;

class ShardPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    instance_ = new DatasetInstance(
        std::move(PrepareDataset(DatasetId::kEmail, /*seed=*/11,
                                 /*seed_count=*/kSeedCount,
                                 /*eval_steps=*/1, /*scale=*/0.5))
            .ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }

  static PipelineConfig Config(size_t num_shards, size_t threads) {
    PipelineConfig config;
    config.method = MakeDefaultConfig(Method::kPrivImStar, 4.0,
                                      instance_->train_graph.num_nodes());
    config.method.train.iterations = 12;
    config.method.train.batch_size = 8;
    config.method.seed_count = kSeedCount;
    config.method.freq.subgraph_size = 15;
    config.method.rwr.subgraph_size = 15;
    config.method.runtime.num_threads = threads;
    config.seed = kSeed;
    config.shard.num_shards = num_shards;
    return config;
  }

  // Pipeline::Build takes graph ownership; tests hand it copies.
  static Result<Pipeline> BuildPipeline(PipelineConfig config) {
    return Pipeline::Build(Graph(instance_->train_graph),
                           Graph(instance_->eval_graph), std::move(config));
  }

  /// A copy of `g` rebuilt without its in-adjacency (the state an edge-list
  /// load with build_in_csr=false produces).
  static Graph WithoutInCsr(const Graph& g) {
    GraphBuilder builder(g.num_nodes());
    for (const Edge& e : g.Edges()) {
      PRIVIM_CHECK(builder.AddEdge(e.src, e.dst, e.weight).ok());
    }
    GraphBuildOptions options;
    options.build_in_csr = false;
    return std::move(builder.Build(options)).ValueOrDie();
  }

  static std::string ScenarioDir(const std::string& name) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / ("privim_shard_" + name))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
  }

  static DatasetInstance* instance_;
};

DatasetInstance* ShardPipelineTest::instance_ = nullptr;

TEST_F(ShardPipelineTest, SerialPathMatchesRunMethodBitForBit) {
  Pipeline pipeline =
      std::move(BuildPipeline(Config(/*num_shards=*/0, /*threads=*/2)))
          .ValueOrDie();
  PipelineRunResult via_facade = std::move(pipeline.Run()).ValueOrDie();
  EXPECT_FALSE(via_facade.sharded);
  ASSERT_NE(via_facade.model, nullptr);

  // The facade's contract: the serial path is RunMethod on the stream-0
  // Rng, nothing more.
  Rng rng = Rng::FromStreamKey(kSeed, 0);
  PrivImRunResult direct =
      std::move(RunMethod(instance_->train_graph, instance_->eval_graph,
                          Config(0, 2).method, rng))
          .ValueOrDie();
  EXPECT_EQ(via_facade.seeds, direct.seeds);
  EXPECT_EQ(via_facade.seed_scores, direct.seed_scores);
  EXPECT_EQ(via_facade.spread, direct.spread);
  EXPECT_EQ(via_facade.epsilon_spent, direct.epsilon_spent);
  EXPECT_EQ(via_facade.epsilon_ledger, direct.epsilon_ledger);
}

TEST_F(ShardPipelineTest, ShardedResumeReproducesRunWithPerShardSnapshots) {
  const std::string dir = ScenarioDir("resume");
  PipelineConfig config = Config(/*num_shards=*/2, /*threads=*/2);
  config.method.checkpoint.dir = dir;
  config.method.checkpoint.train_every = 5;

  Pipeline fresh = std::move(BuildPipeline(config)).ValueOrDie();
  PipelineRunResult first = std::move(fresh.Run()).ValueOrDie();
  EXPECT_TRUE(first.sharded);

  // Each shard checkpointed into its own independently-resumable subdir.
  for (const std::string shard : {"shard0", "shard1"}) {
    EXPECT_TRUE(FileExists(PipelineCheckpointPath(dir + "/" + shard)))
        << shard;
  }

  // Resume from the completed snapshots: bit-identical outcome.
  Pipeline resumed = std::move(BuildPipeline(config)).ValueOrDie();
  PipelineRunResult second = std::move(resumed.Resume()).ValueOrDie();
  EXPECT_EQ(second.seeds, first.seeds);
  EXPECT_EQ(second.seed_scores, first.seed_scores);
  EXPECT_EQ(second.spread, first.spread);
  EXPECT_EQ(second.epsilon_spent, first.epsilon_spent);
  EXPECT_EQ(second.epsilon_ledger, first.epsilon_ledger);
  std::filesystem::remove_all(dir);
}

TEST_F(ShardPipelineTest, ResumeWithoutCheckpointDirIsRejected) {
  Pipeline pipeline =
      std::move(BuildPipeline(Config(/*num_shards=*/0, /*threads=*/1)))
          .ValueOrDie();
  auto result = pipeline.Resume();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("checkpoint.dir"),
            std::string::npos);
}

TEST_F(ShardPipelineTest, BuildMaterializesInCsrEagerly) {
  Graph train = WithoutInCsr(instance_->train_graph);
  Graph eval = WithoutInCsr(instance_->eval_graph);
  ASSERT_FALSE(train.has_in_csr());
  Pipeline pipeline = std::move(Pipeline::Build(std::move(train),
                                                std::move(eval),
                                                Config(2, 1)))
                          .ValueOrDie();
  EXPECT_TRUE(pipeline.train_graph().has_in_csr());
  EXPECT_TRUE(pipeline.eval_graph().has_in_csr());
}

TEST_F(ShardPipelineTest, ShardGraphsSurviveConcurrentReaders) {
  // The satellite-3 invariant, proven under TSan: shard graphs come out of
  // the partitioner with their in-CSR already built, so per-shard tasks on
  // different threads only ever READ the graphs. Before the fix (lazy
  // EnsureInCsr inside the shard task) this test is a TSan data race.
  ShardPlan plan =
      std::move(ShardPlan::Partition(instance_->train_graph, 4)).ValueOrDie();
  std::vector<std::thread> readers;
  std::vector<uint64_t> sums(plan.num_shards(), 0);
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    readers.emplace_back([&plan, &sums, s] {
      const Graph& g = plan.graph(s);
      uint64_t sum = 0;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        sum += g.InDegree(u) + g.OutDegree(u);
      }
      sums[s] = sum;
    });
  }
  for (std::thread& t : readers) t.join();
  uint64_t total = 0;
  for (const uint64_t s : sums) total += s;
  // Every intra arc contributes one out-degree and one in-degree.
  EXPECT_EQ(total, 2 * plan.intra_arcs());
}

TEST_F(ShardPipelineTest, BuildValidatesConfig) {
  PipelineConfig bad = Config(1, 1);
  bad.method.seed_count = 0;  // Invalid method config.
  EXPECT_FALSE(BuildPipeline(std::move(bad)).ok());
}

TEST_F(ShardPipelineTest, TelemetryIsCollectedWhenRequested) {
  PipelineConfig config = Config(/*num_shards=*/2, /*threads=*/2);
  config.collect_telemetry = true;
  Pipeline pipeline = std::move(BuildPipeline(config)).ValueOrDie();
  ASSERT_TRUE(pipeline.Run().ok());
  // The sharded path publishes its shard.* instruments.
  const MetricsSnapshot snapshot = pipeline.Telemetry().metrics.Snapshot();
  ASSERT_EQ(snapshot.gauges.count("shard.count"), 1u);
  EXPECT_EQ(snapshot.gauges.at("shard.count"), 2.0);
  ASSERT_EQ(snapshot.timers.count("shard.extract"), 1u);
  EXPECT_EQ(snapshot.timers.at("shard.extract").calls, 2u);
}

}  // namespace
}  // namespace privim
