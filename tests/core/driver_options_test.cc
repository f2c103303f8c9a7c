// The shared driver flag parser (core/driver_options.h): one
// implementation behind privim_cli, privim_serve, and privim_stream, so
// spellings, validation and the graph-source flags cannot drift. The
// strict numeric readers are tested by parsing only: no test here starts
// the number of threads a rejected flag asks for.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/driver_options.h"
#include "graph/datasets.h"
#include "graph/io.h"

namespace privim {
namespace {

/// Runs the shared parser over a full synthetic argv the way the drivers
/// do; unrecognized flags are collected instead of rejected.
struct ParseOutcome {
  DriverOptions options;
  std::vector<std::string> unclaimed;
  Status status = Status::OK();
};

ParseOutcome Parse(std::vector<std::string> args,
                   DriverOptions::Features features = {}) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("driver"));
  for (std::string& a : args) argv.push_back(a.data());
  ParseOutcome out;
  for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
    Result<bool> shared = out.options.TryParse(
        static_cast<int>(argv.size()), argv.data(), i, features);
    if (!shared.ok()) {
      out.status = shared.status();
      return out;
    }
    if (!*shared) out.unclaimed.push_back(argv[i]);
  }
  return out;
}

TEST(DriverOptionsTest, ParsesEverySharedFlag) {
  ParseOutcome out =
      Parse({"--threads", "8", "--seed", "7", "--telemetry", "t.json",
             "--checkpoint-dir", "ck", "--resume"});
  ASSERT_TRUE(out.status.ok());
  EXPECT_TRUE(out.unclaimed.empty());
  EXPECT_EQ(out.options.threads, 8u);
  EXPECT_EQ(out.options.seed, 7u);
  EXPECT_EQ(out.options.telemetry_path, "t.json");
  EXPECT_EQ(out.options.checkpoint_dir, "ck");
  EXPECT_TRUE(out.options.resume);
  EXPECT_TRUE(out.options.Validate().ok());
}

TEST(DriverOptionsTest, AcceptsEqualsFormForTelemetry) {
  ParseOutcome out = Parse({"--telemetry=runs/t.json"});
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.options.telemetry_path, "runs/t.json");
}

TEST(DriverOptionsTest, LeavesDriverSpecificFlagsAlone) {
  ParseOutcome out =
      Parse({"--method", "PrivIM", "--threads", "2", "--epsilon", "1.5"});
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.options.threads, 2u);
  // The non-shared flags come back untouched and in order; their value
  // arguments stay with them for the driver's own parser.
  EXPECT_EQ(out.unclaimed,
            (std::vector<std::string>{"--method", "PrivIM", "--epsilon",
                                      "1.5"}));
}

TEST(DriverOptionsTest, RejectsMissingValues) {
  EXPECT_FALSE(Parse({"--threads"}).status.ok());
  EXPECT_FALSE(Parse({"--seed"}).status.ok());
  EXPECT_FALSE(Parse({"--telemetry"}).status.ok());
  EXPECT_FALSE(Parse({"--checkpoint-dir"}).status.ok());
}

TEST(DriverOptionsTest, CheckpointFlagsNeedTheFeature) {
  // privim_serve builds with checkpoint = false: the shared flags fail
  // loudly instead of being silently swallowed.
  DriverOptions::Features no_ckpt;
  no_ckpt.checkpoint = false;
  ParseOutcome dir = Parse({"--checkpoint-dir", "ck"}, no_ckpt);
  ASSERT_FALSE(dir.status.ok());
  EXPECT_NE(dir.status.ToString().find("not supported"), std::string::npos);
  EXPECT_FALSE(Parse({"--resume"}, no_ckpt).status.ok());
  // The rest of the shared flags still work without the feature.
  ParseOutcome ok = Parse({"--threads", "4"}, no_ckpt);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.options.threads, 4u);
}

TEST(DriverOptionsTest, ValidateRequiresCheckpointDirForResume) {
  ParseOutcome out = Parse({"--resume"});
  ASSERT_TRUE(out.status.ok());
  const Status st = out.options.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("--checkpoint-dir"), std::string::npos);
}

TEST(DriverOptionsTest, UsageTextTracksFeatures) {
  const std::string full = DriverOptions::UsageText();
  EXPECT_NE(full.find("--checkpoint-dir"), std::string::npos);
  EXPECT_NE(full.find("--threads"), std::string::npos);
  DriverOptions::Features no_ckpt;
  no_ckpt.checkpoint = false;
  const std::string bare = DriverOptions::UsageText(no_ckpt);
  EXPECT_EQ(bare.find("--checkpoint-dir"), std::string::npos);
  EXPECT_EQ(bare.find("--resume"), std::string::npos);
  EXPECT_NE(bare.find("--telemetry"), std::string::npos);
}

TEST(DriverOptionsTest, UsageTextListsEveryParsableDataset) {
  const std::string usage = DriverOptions::UsageText();
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    EXPECT_NE(usage.find(spec.name), std::string::npos) << spec.name;
    EXPECT_TRUE(ParseDatasetId(spec.name).ok()) << spec.name;
  }
}

TEST(DriverOptionsTest, ParsesGraphSourceFlags) {
  ParseOutcome out = Parse({"--dataset", "Email", "--scale", "0.5",
                            "--edge-list", "g.txt", "--undirected"});
  ASSERT_TRUE(out.status.ok());
  EXPECT_TRUE(out.unclaimed.empty());
  EXPECT_EQ(out.options.dataset, "Email");
  EXPECT_EQ(out.options.scale, 0.5);
  EXPECT_EQ(out.options.edge_list, "g.txt");
  EXPECT_TRUE(out.options.undirected);
}

TEST(DriverOptionsTest, ValidateChecksTheGraphSource) {
  ParseOutcome unknown = Parse({"--dataset", "DBLP"});
  ASSERT_TRUE(unknown.status.ok());
  EXPECT_FALSE(unknown.options.Validate().ok());
  // An edge list replaces the dataset, so its name is not checked.
  ParseOutcome file = Parse({"--dataset", "DBLP", "--edge-list", "g.txt"});
  EXPECT_TRUE(file.options.Validate().ok());
  ParseOutcome zero_scale = Parse({"--scale", "0"});
  ASSERT_TRUE(zero_scale.status.ok());
  EXPECT_FALSE(zero_scale.options.Validate().ok());
}

TEST(DriverOptionsTest, NumericFlagsRejectMalformedValues) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--threads", "-1"},
           {"--threads", "5x"},
           {"--threads", ""},
           {"--threads", " 4"},
           {"--threads", "+4"},
           {"--threads", "1025"},
           {"--seed", "-7"},
           {"--seed", "18446744073709551616"},
           {"--scale", "2x"},
           {"--scale", ""},
           {"--scale", "nan"},
           {"--scale", "inf"},
           {"--scale", "1e400"}}) {
    const ParseOutcome out = Parse(args);
    EXPECT_FALSE(out.status.ok()) << args[0] << " '" << args[1] << "'";
    EXPECT_NE(out.status.ToString().find(args[0]), std::string::npos)
        << out.status.ToString();
  }
}

TEST(DriverOptionsTest, ThreadFlagAcceptsItsCap) {
  const ParseOutcome out =
      Parse({"--threads", std::to_string(kMaxDriverThreads)});
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.options.threads, kMaxDriverThreads);
  const ParseOutcome seed = Parse({"--seed", "18446744073709551615"});
  ASSERT_TRUE(seed.status.ok());
  EXPECT_EQ(seed.options.seed, 18446744073709551615ull);
}

TEST(DriverOptionsTest, StrictParsersReadOnlyWholeNumbers) {
  EXPECT_EQ(*ParseUnsignedFlag("--k", "50"), 50u);
  EXPECT_EQ(*ParseUnsignedFlag("--k", "0"), 0u);
  EXPECT_FALSE(ParseUnsignedFlag("--k", "5x").ok());
  EXPECT_FALSE(ParseUnsignedFlag("--k", "1e3").ok());
  EXPECT_FALSE(ParseUnsignedFlag("--k", "0x10").ok());
  EXPECT_FALSE(ParseUnsignedFlag("--k", "4 ").ok());
  EXPECT_FALSE(ParseUnsignedFlag("--clients", "1025", kMaxDriverThreads)
                   .ok());
  EXPECT_EQ(*ParseRealFlag("--epsilon", "2"), 2.0);
  EXPECT_EQ(*ParseRealFlag("--epsilon", "0.25"), 0.25);
  EXPECT_EQ(*ParseRealFlag("--epsilon", "1e-3"), 1e-3);
  // Sign and range are the flag's own check (--epsilon must be positive).
  EXPECT_EQ(*ParseRealFlag("--epsilon", "-1.5"), -1.5);
  EXPECT_FALSE(ParseRealFlag("--epsilon", "2x").ok());
  EXPECT_FALSE(ParseRealFlag("--epsilon", "-").ok());
  EXPECT_FALSE(ParseRealFlag("--epsilon", "-inf").ok());
}

TEST(DriverOptionsTest, FlagValueReadersConsumeTheValue) {
  std::vector<std::string> args = {"driver", "--clients", "9", "--epsilon",
                                   "0.5", "--requests"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const int argc = static_cast<int>(argv.size());
  int i = 1;
  EXPECT_EQ(*UnsignedFlagValue(argc, argv.data(), i, kMaxDriverThreads), 9u);
  EXPECT_EQ(i, 2);
  i = 3;
  EXPECT_EQ(*RealFlagValue(argc, argv.data(), i), 0.5);
  EXPECT_EQ(i, 4);
  i = 5;
  const Result<uint64_t> missing = UnsignedFlagValue(argc, argv.data(), i);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("--requests requires a value"),
            std::string::npos);
}

TEST(DriverOptionsTest, LoadGraphReadsEdgeListsOutOnly) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "privim_driver_graph.txt")
          .string();
  {
    std::ofstream out(path);
    out << "0 1\n1 2\n2 0\n2 3\n";
  }
  DriverOptions options;
  options.edge_list = path;
  options.undirected = true;
  Result<DriverOptions::LoadedGraph> loaded = options.LoadGraph();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->source, path);
  EXPECT_EQ(loaded->paper_nodes, 4u);
  EXPECT_FALSE(loaded->graph.has_in_csr());
  // The lazily built in-CSR equals an up-front one.
  ASSERT_TRUE(loaded->graph.EnsureInCsr().ok());
  const Graph eager = std::move(LoadEdgeList(path, true)).ValueOrDie();
  EXPECT_EQ(loaded->graph.Edges(), eager.Edges());
  for (NodeId u = 0; u < eager.num_nodes(); ++u) {
    const auto lazy_in = loaded->graph.InNeighbors(u);
    const auto eager_in = eager.InNeighbors(u);
    EXPECT_EQ(std::vector<NodeId>(lazy_in.begin(), lazy_in.end()),
              std::vector<NodeId>(eager_in.begin(), eager_in.end()));
  }
  std::filesystem::remove(path);
}

TEST(DriverOptionsTest, LoadGraphSynthesizesTheNamedStandIn) {
  DriverOptions options;
  options.dataset = "email";
  options.scale = 0.1;
  Result<DriverOptions::LoadedGraph> loaded = options.LoadGraph();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->source, "Email (synthetic stand-in)");
  EXPECT_EQ(loaded->paper_nodes,
            GetDatasetSpec(DatasetId::kEmail).paper_nodes);
  EXPECT_GT(loaded->graph.num_nodes(), 0u);
}

}  // namespace
}  // namespace privim
