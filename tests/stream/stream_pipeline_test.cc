// End-to-end streaming-pipeline suite (src/stream/, docs/streaming.md):
// continual-observation epsilon composition, drift/staleness retrain
// triggers, kill-and-resume bit-identity, and the graph+model serving
// hot swap.

#include "stream/stream_pipeline.h"

#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/binary_io.h"
#include "ckpt/stream_state.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "serve/server.h"

namespace privim {
namespace {

Graph MakeInitialGraph() {
  Rng rng(0x11);
  Graph g = std::move(WattsStrogatz(80, 3, 0.2, rng)).ValueOrDie();
  EXPECT_TRUE(g.EnsureInCsr().ok());
  return g;
}

/// Small-but-real config: full DP training per round, shrunk to test size.
StreamOptions MakeOptions(Method method = Method::kPrivImStar) {
  StreamOptions o;
  o.method = MakeDefaultConfig(method, 2.0, 80);
  o.method.train.iterations = 8;
  o.method.train.batch_size = 8;
  o.method.seed_count = 5;
  o.method.freq.subgraph_size = 12;
  o.method.rwr.subgraph_size = 12;
  o.retrain.drift_fraction = 0.0;
  o.retrain.staleness_batches = 2;  // retrain every 2 batches
  o.gen.events_per_batch = 20;
  o.rr_sketch_sets = 48;
  o.seed = 0x5151;
  return o;
}

std::string ScenarioDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("privim_stream_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// The seconds field is wall time — restored rows keep it, fresh rows
/// remeasure — so bit-identity comparisons zero it out first.
std::vector<StreamStepRecord> WithoutTiming(
    std::vector<StreamStepRecord> rows) {
  for (StreamStepRecord& r : rows) r.seconds = 0.0;
  return rows;
}

void ExpectIdenticalStates(const StreamState& got, const StreamState& want) {
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.batches_applied, want.batches_applied);
  EXPECT_EQ(got.event_log, want.event_log);
  EXPECT_EQ(got.accountant.delta, want.accountant.delta);
  EXPECT_EQ(got.accountant.gamma_totals, want.accountant.gamma_totals);
  ASSERT_EQ(got.accountant.rounds.size(), want.accountant.rounds.size());
  for (size_t i = 0; i < got.accountant.rounds.size(); ++i) {
    EXPECT_EQ(got.accountant.rounds[i].sigma, want.accountant.rounds[i].sigma);
    EXPECT_EQ(got.accountant.rounds[i].cumulative_epsilon,
              want.accountant.rounds[i].cumulative_epsilon);
  }
  EXPECT_EQ(got.arcs_at_train, want.arcs_at_train);
  EXPECT_EQ(got.changed_since_train, want.changed_since_train);
  EXPECT_EQ(got.batches_since_train, want.batches_since_train);
  EXPECT_EQ(got.seeds, want.seeds);
  EXPECT_EQ(got.seed_scores, want.seed_scores);
  EXPECT_EQ(got.has_model, want.has_model);
  EXPECT_EQ(got.model_params, want.model_params);
  EXPECT_EQ(got.sketch_stream_base, want.sketch_stream_base);
  EXPECT_EQ(got.sketch_sets, want.sketch_sets);
  EXPECT_EQ(WithoutTiming(got.history), WithoutTiming(want.history));
}

TEST(StreamPipelineTest, EpsilonComposesMonotonicallyAcrossRounds) {
  std::unique_ptr<StreamPipeline> pipeline =
      std::move(StreamPipeline::Build(MakeInitialGraph(), MakeOptions()))
          .ValueOrDie();
  // Round 0 trains at Build: the ledger already has one round.
  ASSERT_EQ(pipeline->accountant().num_rounds(), 1u);
  const double round0 = pipeline->CumulativeEpsilon();
  EXPECT_GT(round0, 0.0);

  double last = round0;
  size_t retrains_seen = 0;
  for (int b = 0; b < 6; ++b) {
    StreamStepRecord row = std::move(pipeline->Step()).ValueOrDie();
    // Never resets, never decreases — continual observation composes.
    EXPECT_GE(row.cumulative_epsilon, last);
    if (row.retrained) {
      ++retrains_seen;
      EXPECT_GT(row.cumulative_epsilon, last)
          << "a retraining round must spend privacy";
    } else {
      EXPECT_EQ(row.cumulative_epsilon, last)
          << "a batch without retraining must not spend privacy";
    }
    last = row.cumulative_epsilon;
  }
  // staleness_batches = 2 over 6 batches -> 3 stream retrains + round 0.
  EXPECT_EQ(retrains_seen, 3u);
  EXPECT_EQ(pipeline->num_retrains(), 4u);
  EXPECT_EQ(pipeline->accountant().num_rounds(), 4u);
  EXPECT_EQ(pipeline->CumulativeEpsilon(), last);
  EXPECT_EQ(pipeline->seeds().size(), 5u);

  // The per-round ledger itself is nondecreasing.
  double cum = 0.0;
  for (const ContinualAccountant::Round& r : pipeline->accountant().rounds()) {
    EXPECT_GT(r.round_epsilon, 0.0);
    EXPECT_GE(r.cumulative_epsilon, cum);
    cum = r.cumulative_epsilon;
  }
}

TEST(StreamPipelineTest, DriftTriggerFires) {
  StreamOptions o = MakeOptions();
  o.retrain.staleness_batches = 0;
  o.retrain.drift_fraction = 0.05;  // 20-event batches on ~240 arcs
  std::unique_ptr<StreamPipeline> pipeline =
      std::move(StreamPipeline::Build(MakeInitialGraph(), std::move(o)))
          .ValueOrDie();
  bool retrained = false;
  for (int b = 0; b < 4 && !retrained; ++b) {
    StreamStepRecord row = std::move(pipeline->Step()).ValueOrDie();
    retrained = row.retrained != 0;
  }
  EXPECT_TRUE(retrained);
}

TEST(StreamPipelineTest, DisabledTriggersNeverRetrain) {
  StreamOptions o = MakeOptions();
  o.retrain.staleness_batches = 0;
  o.retrain.drift_fraction = 0.0;
  std::unique_ptr<StreamPipeline> pipeline =
      std::move(StreamPipeline::Build(MakeInitialGraph(), std::move(o)))
          .ValueOrDie();
  const double eps = pipeline->CumulativeEpsilon();
  for (int b = 0; b < 3; ++b) {
    StreamStepRecord row = std::move(pipeline->Step()).ValueOrDie();
    EXPECT_EQ(row.retrained, 0);
    EXPECT_EQ(row.cumulative_epsilon, eps);
  }
  EXPECT_EQ(pipeline->num_retrains(), 1u);
}

TEST(StreamPipelineTest, NonPrivateSpendsNoEpsilon) {
  std::unique_ptr<StreamPipeline> pipeline =
      std::move(StreamPipeline::Build(MakeInitialGraph(),
                                      MakeOptions(Method::kNonPrivate)))
          .ValueOrDie();
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(pipeline->Step().ok());
  }
  EXPECT_EQ(pipeline->accountant().num_rounds(), 0u);
  EXPECT_EQ(pipeline->CumulativeEpsilon(), 0.0);
}

TEST(StreamPipelineTest, KillAndResumeIsBitIdentical) {
  constexpr int kTotal = 5;
  constexpr int kKillAfter = 2;

  // Uninterrupted reference (checkpointing on — it must not perturb).
  const std::string ref_dir = ScenarioDir("ref");
  StreamOptions ref_opts = MakeOptions();
  ref_opts.checkpoint_dir = ref_dir;
  std::unique_ptr<StreamPipeline> ref =
      std::move(StreamPipeline::Build(MakeInitialGraph(),
                                      std::move(ref_opts)))
          .ValueOrDie();
  for (int b = 0; b < kTotal; ++b) ASSERT_TRUE(ref->Step().ok());

  // Interrupted run: apply kKillAfter batches, drop the pipeline (the
  // "kill" — batch boundaries are the only commit points), rebuild with
  // resume from the same initial graph, and finish the stream.
  const std::string dir = ScenarioDir("killed");
  StreamOptions opts = MakeOptions();
  opts.checkpoint_dir = dir;
  {
    std::unique_ptr<StreamPipeline> first =
        std::move(StreamPipeline::Build(MakeInitialGraph(), opts))
            .ValueOrDie();
    for (int b = 0; b < kKillAfter; ++b) ASSERT_TRUE(first->Step().ok());
  }
  ASSERT_TRUE(FileExists(StreamCheckpointPath(dir)));

  opts.resume = true;
  std::unique_ptr<StreamPipeline> resumed =
      std::move(StreamPipeline::Build(MakeInitialGraph(), std::move(opts)))
          .ValueOrDie();
  EXPECT_EQ(resumed->batches_applied(),
            static_cast<uint64_t>(kKillAfter));
  for (int b = kKillAfter; b < kTotal; ++b) {
    ASSERT_TRUE(resumed->Step().ok());
  }

  ExpectIdenticalStates(resumed->ExportState(), ref->ExportState());
  EXPECT_EQ(resumed->sketch().sets(), ref->sketch().sets());
  EXPECT_EQ(resumed->CumulativeEpsilon(), ref->CumulativeEpsilon());
  EXPECT_EQ(resumed->num_retrains(), ref->num_retrains());

  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);
}

TEST(StreamPipelineTest, ResumeRejectsDifferentInitialGraph) {
  const std::string dir = ScenarioDir("mismatch");
  StreamOptions opts = MakeOptions();
  opts.checkpoint_dir = dir;
  {
    std::unique_ptr<StreamPipeline> first =
        std::move(StreamPipeline::Build(MakeInitialGraph(), opts))
            .ValueOrDie();
    ASSERT_TRUE(first->Step().ok());
  }
  opts.resume = true;
  Rng rng(0x99);
  Graph other = std::move(WattsStrogatz(80, 3, 0.5, rng)).ValueOrDie();
  ASSERT_TRUE(other.EnsureInCsr().ok());
  Result<std::unique_ptr<StreamPipeline>> resumed =
      StreamPipeline::Build(std::move(other), std::move(opts));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

TEST(StreamPipelineTest, PublishSwapsGraphAndModelTogether) {
  std::unique_ptr<StreamPipeline> pipeline =
      std::move(StreamPipeline::Build(MakeInitialGraph(), MakeOptions()))
          .ValueOrDie();
  for (int b = 0; b < 2; ++b) ASSERT_TRUE(pipeline->Step().ok());

  Graph serve_graph = MakeInitialGraph();
  ServeConfig cfg;
  cfg.num_threads = 1;
  cfg.rr_sketch_sets = 16;
  Server server(serve_graph, cfg);

  ASSERT_TRUE(pipeline->PublishTo(server).ok());

  // The server now answers from the pipeline's *current* graph (base +
  // overlay, compacted), not the graph it was constructed over, and from
  // a snapshot that owns that same graph.
  std::shared_ptr<const Graph> current = server.CurrentGraph();
  ASSERT_NE(current, nullptr);
  EXPECT_NE(current.get(), &serve_graph);
  EXPECT_EQ(current->num_nodes(), pipeline->View().num_nodes());
  EXPECT_EQ(current->num_edges(), pipeline->View().num_edges());

  std::shared_ptr<const ModelSnapshot> snap = server.CurrentSnapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->owned_graph().get(), current.get());

  // The resident sketch was regenerated on the new graph before publish,
  // at the server's horizon.
  std::shared_ptr<const RrSketch> sketch = server.CurrentSketch();
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(sketch->num_nodes(), current->num_nodes());
  EXPECT_EQ(sketch->max_steps(), QueryRequest{}.max_steps);
  Rng ref_rng(cfg.rr_sketch_seed);
  const RrSketch ref =
      std::move(RrSketch::Generate(*current, cfg.rr_sketch_sets,
                                   QueryRequest{}.max_steps, ref_rng))
          .ValueOrDie();
  EXPECT_EQ(sketch->sets(), ref.sets());
}

TEST(StreamPipelineTest, SketchIsDrawnAtTheUtilityHorizon) {
  StreamOptions opts = MakeOptions();
  opts.utility_steps = 2;
  std::unique_ptr<StreamPipeline> pipeline =
      std::move(StreamPipeline::Build(MakeInitialGraph(), opts))
          .ValueOrDie();
  EXPECT_EQ(pipeline->sketch().max_steps(), 2);
  ASSERT_TRUE(pipeline->Step().ok());
  const RrSketch rebuilt =
      std::move(RrSketch::Regenerate(pipeline->View(), opts.rr_sketch_sets,
                                     2, pipeline->sketch().stream_base()))
          .ValueOrDie();
  EXPECT_EQ(pipeline->sketch().sets(), rebuilt.sets());
}

TEST(StreamPipelineTest, ResumeRejectsDifferentSketchHorizon) {
  const std::string dir = ScenarioDir("horizon");
  StreamOptions opts = MakeOptions();
  opts.checkpoint_dir = dir;
  {
    std::unique_ptr<StreamPipeline> first =
        std::move(StreamPipeline::Build(MakeInitialGraph(), opts))
            .ValueOrDie();
    ASSERT_TRUE(first->Step().ok());
  }
  opts.resume = true;
  opts.utility_steps = 2;
  Result<std::unique_ptr<StreamPipeline>> resumed =
      StreamPipeline::Build(MakeInitialGraph(), opts);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("horizon"), std::string::npos)
      << resumed.status().message();
  // The same options at the original horizon still resume.
  opts.utility_steps = 1;
  EXPECT_TRUE(StreamPipeline::Build(MakeInitialGraph(), opts).ok());
  std::filesystem::remove_all(dir);
}

TEST(StreamStateTest, CheckpointRoundTripsExactly) {
  std::unique_ptr<StreamPipeline> pipeline =
      std::move(StreamPipeline::Build(MakeInitialGraph(), MakeOptions()))
          .ValueOrDie();
  for (int b = 0; b < 3; ++b) ASSERT_TRUE(pipeline->Step().ok());

  const std::string dir = ScenarioDir("roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = StreamCheckpointPath(dir);
  StreamState state = pipeline->ExportState();
  ASSERT_TRUE(SaveStreamState(state, path).ok());
  StreamState loaded = std::move(LoadStreamState(path)).ValueOrDie();
  // Serialization is exact: the loaded state compares equal field by
  // field, timing included.
  ExpectIdenticalStates(loaded, state);
  EXPECT_EQ(loaded.history, state.history);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace privim
