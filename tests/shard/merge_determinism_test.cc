// The sharded pipeline's determinism contracts (ISSUE: merge-determinism
// suite): identical merged seeds + epsilon across repeats and thread
// counts at shards {1, 2, 4}, and seed-for-seed equality between
// shards=1 and the serial RunMethod path.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/privim.h"
#include "shard/shard_runner.h"

namespace privim {
namespace {

constexpr uint64_t kSeed = 202;
constexpr size_t kSeedCount = 8;

class MergeDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Full-size Email (1000 nodes, avg degree ~25): the 8-shard rung needs
    // per-shard graphs that are still samplable (~62 train nodes, ~1/8 of
    // the arcs each).
    instance_ = new DatasetInstance(
        std::move(PrepareDataset(DatasetId::kEmail, /*seed=*/11,
                                 /*seed_count=*/kSeedCount,
                                 /*eval_steps=*/1, /*scale=*/1.0))
            .ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }

  static PrivImConfig Config(size_t threads) {
    PrivImConfig cfg = MakeDefaultConfig(
        Method::kPrivImStar, 4.0, instance_->train_graph.num_nodes());
    cfg.train.iterations = 12;
    cfg.train.batch_size = 8;
    cfg.seed_count = kSeedCount;
    // Shard-feasible subgraph size: an 8-shard node partition keeps ~1/8
    // of the arcs, and walks must still collect n distinct nodes inside
    // one shard (docs/sharding.md, "choosing n under sharding").
    cfg.freq.subgraph_size = 10;
    cfg.rwr.subgraph_size = 10;
    cfg.runtime.num_threads = threads;
    return cfg;
  }

  static Result<ShardedRunResult> RunSharded(size_t shards, size_t threads,
                                             bool overlap = true) {
    ShardRunOptions options;
    options.num_shards = shards;
    options.seed = kSeed;
    options.overlap = overlap;
    ShardRunner runner(instance_->train_graph, instance_->eval_graph,
                       Config(threads), options);
    return runner.Run();
  }

  static void ExpectIdentical(const ShardedRunResult& got,
                              const ShardedRunResult& want) {
    EXPECT_EQ(got.seeds, want.seeds);
    EXPECT_EQ(got.seed_scores, want.seed_scores);
    EXPECT_EQ(got.spread, want.spread);
    EXPECT_EQ(got.epsilon_spent, want.epsilon_spent);
    EXPECT_EQ(got.epsilon_ledger, want.epsilon_ledger);
    EXPECT_EQ(got.train_cut_arcs, want.train_cut_arcs);
    EXPECT_EQ(got.eval_cut_arcs, want.eval_cut_arcs);
  }

  static DatasetInstance* instance_;
};

DatasetInstance* MergeDeterminismTest::instance_ = nullptr;

TEST_F(MergeDeterminismTest, RepeatsAndThreadCountsAreBitIdentical) {
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedRunResult baseline =
        std::move(RunSharded(shards, /*threads=*/1)).ValueOrDie();
    ASSERT_EQ(baseline.seeds.size(), kSeedCount);
    // Repeat at 1 thread, twice at 8 threads, and once with the overlap
    // scheduler disabled: scheduling must never leak into results.
    ShardedRunResult repeat =
        std::move(RunSharded(shards, /*threads=*/1)).ValueOrDie();
    ExpectIdentical(repeat, baseline);
    ShardedRunResult wide =
        std::move(RunSharded(shards, /*threads=*/8)).ValueOrDie();
    ExpectIdentical(wide, baseline);
    ShardedRunResult wide2 =
        std::move(RunSharded(shards, /*threads=*/8)).ValueOrDie();
    ExpectIdentical(wide2, baseline);
    ShardedRunResult serialized =
        std::move(RunSharded(shards, /*threads=*/8, /*overlap=*/false))
            .ValueOrDie();
    ExpectIdentical(serialized, baseline);
  }
}

TEST_F(MergeDeterminismTest, OneShardMatchesSerialRunMethodBitForBit) {
  // The shards=1 contract: partition -> run -> merge with one shard is
  // the identity transform over the serial pipeline, on the SAME Rng
  // stream (FromStreamKey(seed, 0)).
  ShardedRunResult sharded =
      std::move(RunSharded(/*shards=*/1, /*threads=*/4)).ValueOrDie();

  Rng rng = Rng::FromStreamKey(kSeed, 0);
  PrivImRunResult serial =
      std::move(RunMethod(instance_->train_graph, instance_->eval_graph,
                          Config(/*threads=*/4), rng))
          .ValueOrDie();
  EXPECT_EQ(sharded.seeds, serial.seeds);
  EXPECT_EQ(sharded.seed_scores, serial.seed_scores);
  EXPECT_EQ(sharded.spread, serial.spread);
  EXPECT_EQ(sharded.epsilon_spent, serial.epsilon_spent);
  EXPECT_EQ(sharded.epsilon_ledger, serial.epsilon_ledger);
  EXPECT_EQ(sharded.train_cut_arcs, 0u);
  EXPECT_EQ(sharded.eval_cut_arcs, 0u);
}

TEST_F(MergeDeterminismTest, EpsilonComposesAsMaxOverShards) {
  ShardedRunResult sharded =
      std::move(RunSharded(/*shards=*/4, /*threads=*/4)).ValueOrDie();
  ASSERT_EQ(sharded.shards.size(), 4u);
  double max_eps = 0.0;
  for (const ShardOutcome& shard : sharded.shards) {
    max_eps = std::max(max_eps, shard.run.epsilon_spent);
    EXPECT_GT(shard.run.epsilon_spent, 0.0);
  }
  EXPECT_EQ(sharded.epsilon_spent, max_eps);
  ASSERT_FALSE(sharded.epsilon_ledger.empty());
  // The composed ledger ends at the composed spend and never decreases.
  EXPECT_EQ(sharded.epsilon_ledger.back(), max_eps);
  for (size_t i = 1; i < sharded.epsilon_ledger.size(); ++i) {
    EXPECT_GE(sharded.epsilon_ledger[i], sharded.epsilon_ledger[i - 1]);
  }
}

TEST_F(MergeDeterminismTest, MergedSeedsAreShardSeedsRankedByScore) {
  ShardedRunResult sharded =
      std::move(RunSharded(/*shards=*/2, /*threads=*/2)).ValueOrDie();
  ASSERT_EQ(sharded.seeds.size(), kSeedCount);
  // Every merged seed came from exactly one shard's contribution, and the
  // merged scores are non-increasing.
  for (size_t i = 0; i < sharded.seeds.size(); ++i) {
    bool found = false;
    for (const ShardOutcome& shard : sharded.shards) {
      for (size_t j = 0; j < shard.seeds.size(); ++j) {
        if (shard.seeds[j] == sharded.seeds[i] &&
            shard.run.seed_scores[j] == sharded.seed_scores[i]) {
          found = true;
        }
      }
    }
    EXPECT_TRUE(found) << "seed " << sharded.seeds[i];
    if (i > 0) EXPECT_GE(sharded.seed_scores[i - 1], sharded.seed_scores[i]);
  }
}

TEST_F(MergeDeterminismTest, RejectsMoreSeedsThanShardEvalNodes) {
  // 64 shards of a ~150-node eval graph leaves some shard with fewer than
  // k nodes; the runner must fail fast with the field-path message.
  ShardRunOptions options;
  options.num_shards = 64;
  options.seed = kSeed;
  ShardRunner runner(instance_->train_graph, instance_->eval_graph,
                     Config(1), options);
  auto result = runner.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("seed_count"),
            std::string::npos);
}

}  // namespace
}  // namespace privim
