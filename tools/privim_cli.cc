// Command-line interface to the PrivIM pipeline: pick a dataset (synthetic
// stand-in or an edge-list file), a method and a privacy budget, and get a
// private seed set with full accounting telemetry. Built on the stable
// Pipeline facade (shard/pipeline.h) and the shared driver flags
// (core/driver_options.h) — the same surface privim_serve and
// privim_stream use.
//
// --shards N runs the same mechanism over N node-disjoint partitions
// (docs/sharding.md): the shards compose in parallel, so the global spend
// is the max over shards. --shards 1 prints the same seeds, spread and
// epsilon as the serial default (--shards 0).
//
// Examples:
//   privim_cli --dataset LastFM --method 'PrivIM*' --epsilon 2
//   privim_cli --edge-list graph.txt --undirected --k 25 --epsilon 1
//   privim_cli --dataset Gowalla --method PrivIM --epsilon 3 --gnn gcn \
//              --auto-tune --save-model model.ckpt
//   privim_cli --dataset LastFM --shards 4 --threads 8 --epsilon 2

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/driver_options.h"
#include "core/privim.h"
#include "graph/datasets.h"
#include "graph/subgraph.h"
#include "im/metrics.h"
#include "im/seed_selection.h"
#include "nn/serialization.h"
#include "shard/pipeline.h"

namespace privim {
namespace {

struct CliOptions {
  std::string method = "PrivIM*";
  std::string gnn;
  double epsilon = 2.0;
  size_t k = 50;
  size_t shards = 0;
  std::string diffusion = "exact";
  bool auto_tune = false;
  bool with_celf = true;
  std::string save_model;
  DriverOptions driver;
};

void PrintUsage() {
  std::cout <<
      R"(privim_cli — differentially private influence maximization

  --method NAME      PrivIM*, PrivIM, PrivIM+SCS, EGN, HP, HP-GRAT,
                     Non-Private                            [PrivIM*]
  --gnn NAME         backbone override: grat, gat, gcn, sage, gin
  --epsilon X        privacy budget (per shard when sharded; parallel
                     composition makes it the global spend)  [2.0]
  --k N              seed budget                            [50]
  --shards N         node-disjoint partitions (0 = serial)  [0]
  --eval-diffusion NAME
                     evaluation model: exact, mc, lt, sis   [exact]
  --diffusion NAME   alias for --eval-diffusion
  --auto-tune        pick (n, M) with the Gamma indicator
  --no-celf          skip the CELF reference (faster)
  --save-model PATH  write the trained model checkpoint (serial only)
)" << DriverOptions::UsageText()
            << "  --help             this text\n";
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(bool shared,
                            opts.driver.TryParse(argc, argv, i));
    if (shared) continue;
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--method") {
      PRIVIM_ASSIGN_OR_RETURN(opts.method, FlagValue(argc, argv, i));
    } else if (arg == "--gnn") {
      PRIVIM_ASSIGN_OR_RETURN(opts.gnn, FlagValue(argc, argv, i));
    } else if (arg == "--epsilon") {
      PRIVIM_ASSIGN_OR_RETURN(opts.epsilon, RealFlagValue(argc, argv, i));
    } else if (arg == "--k") {
      PRIVIM_ASSIGN_OR_RETURN(opts.k, UnsignedFlagValue(argc, argv, i));
    } else if (arg == "--shards") {
      PRIVIM_ASSIGN_OR_RETURN(opts.shards, UnsignedFlagValue(argc, argv, i));
    } else if (arg == "--diffusion" || arg == "--eval-diffusion") {
      PRIVIM_ASSIGN_OR_RETURN(opts.diffusion, FlagValue(argc, argv, i));
    } else if (arg == "--auto-tune") {
      opts.auto_tune = true;
    } else if (arg == "--no-celf") {
      opts.with_celf = false;
    } else if (arg == "--save-model") {
      PRIVIM_ASSIGN_OR_RETURN(opts.save_model, FlagValue(argc, argv, i));
    } else {
      return Status::InvalidArgument("unknown flag " + arg +
                                     " (try --help)");
    }
  }
  if (opts.k == 0) return Status::InvalidArgument("--k must be positive");
  if (opts.epsilon <= 0) {
    return Status::InvalidArgument("--epsilon must be positive");
  }
  if (opts.shards > 0 && !opts.save_model.empty()) {
    return Status::InvalidArgument(
        "--save-model needs the serial path: a sharded run trains one "
        "model per shard and exports none");
  }
  PRIVIM_RETURN_NOT_OK(opts.driver.Validate());
  return opts;
}

void PrintShardDetail(const ShardedRunResult& sharded) {
  std::cout << "partition: train " << sharded.train_intra_arcs
            << " intra + " << sharded.train_cut_arcs
            << " cut arcs dropped; eval " << sharded.eval_intra_arcs
            << " intra + " << sharded.eval_cut_arcs << " cut\n";
  TablePrinter table({"Shard", "subgraphs", "extract s", "finish s",
                      "epsilon"});
  for (const ShardOutcome& shard : sharded.shards) {
    table.AddRow(StrFormat("%zu", shard.shard),
                 {static_cast<double>(shard.run.container_size),
                  shard.extract_seconds, shard.finish_seconds,
                  shard.run.epsilon_spent},
                 3);
  }
  table.Print(std::cout);
  std::cout << "timing: wall " << FormatDouble(sharded.wall_seconds, 3)
            << "s vs serialized stages "
            << FormatDouble(sharded.stage_seconds, 3) << "s ("
            << FormatDouble(
                   sharded.stage_seconds > 0.0
                       ? 100.0 * (1.0 - sharded.wall_seconds /
                                            sharded.stage_seconds)
                       : 0.0,
                   1)
            << "% saved by overlap)\n";
}

Status RunCli(const CliOptions& opts) {
  // ---- Load or synthesize the graph and split it. ----
  PRIVIM_ASSIGN_OR_RETURN(DriverOptions::LoadedGraph loaded,
                          opts.driver.LoadGraph());
  const Graph& full = loaded.graph;
  std::cout << "graph: " << loaded.source << " — " << full.num_nodes()
            << " nodes, " << full.num_edges() << " arcs\n";

  Rng split_rng(opts.driver.seed + 1);
  PRIVIM_ASSIGN_OR_RETURN(NodeSplit split,
                          SplitNodes(full.num_nodes(), split_rng));
  PRIVIM_ASSIGN_OR_RETURN(Subgraph train_sub,
                          InduceSubgraph(full, split.train));
  PRIVIM_ASSIGN_OR_RETURN(Subgraph eval_sub,
                          InduceSubgraph(full, split.test));
  if (eval_sub.local.num_nodes() < opts.k) {
    return Status::InvalidArgument("evaluation split smaller than k");
  }

  // ---- Configure. ----
  PRIVIM_ASSIGN_OR_RETURN(Method method, ParseMethod(opts.method));
  PrivImConfig config = MakeDefaultConfig(method, opts.epsilon,
                                          train_sub.local.num_nodes());
  config.seed_count = opts.k;
  config.runtime.num_threads = opts.driver.threads;
  PRIVIM_ASSIGN_OR_RETURN(config.eval_diffusion,
                          ParseEvalDiffusion(opts.diffusion));
  config.checkpoint.dir = opts.driver.checkpoint_dir;
  if (config.eval_diffusion == PrivImConfig::EvalDiffusion::kSis) {
    config.eval_steps = 8;
  }
  if (!opts.gnn.empty()) {
    PRIVIM_ASSIGN_OR_RETURN(config.gnn.type, ParseGnnType(opts.gnn));
  }
  if (opts.auto_tune) {
    AutoTuneSamplingParams(loaded.paper_nodes, config);
    std::cout << "indicator-tuned parameters: n = "
              << config.freq.subgraph_size
              << ", M = " << config.freq.frequency_threshold << "\n";
  }

  // ---- Run through the Pipeline facade. ----
  PipelineConfig pipeline_config;
  pipeline_config.method = config;
  pipeline_config.seed = opts.driver.seed;
  pipeline_config.collect_telemetry = !opts.driver.telemetry_path.empty();
  pipeline_config.shard.num_shards = opts.shards;
  PRIVIM_ASSIGN_OR_RETURN(
      Pipeline pipeline,
      Pipeline::Build(std::move(train_sub.local), std::move(eval_sub.local),
                      std::move(pipeline_config)));
  PRIVIM_ASSIGN_OR_RETURN(
      PipelineRunResult result,
      opts.driver.resume ? pipeline.Resume() : pipeline.Run());

  std::cout << "\nmethod: " << MethodName(method) << " ("
            << GnnTypeName(config.gnn.type) << " backbone)";
  if (result.sharded) {
    std::cout << ", " << opts.shards << " shard"
              << (opts.shards == 1 ? "" : "s") << "\n";
    PrintShardDetail(result.sharded_run);
  } else {
    const PrivImRunResult& run = result.run;
    std::cout << "\n";
    if (method != Method::kNonPrivate) {
      std::cout << "noise: sigma = " << run.sigma << ", clip C = "
                << run.clip_bound_used << ", N_g = " << run.occurrence_bound
                << "\n";
    }
    std::cout << "container: " << run.container_size << " subgraphs ("
              << run.stage1_count << " + " << run.stage2_count
              << "), audited max occurrence " << run.audited_max_occurrence
              << "\n";
    std::cout << "timings: preprocessing " << run.preprocessing_seconds
              << "s, per-epoch " << run.per_epoch_seconds << "s\n";
  }

  std::cout << "\nseeds (" << result.seeds.size() << "):";
  for (size_t i = 0; i < result.seeds.size(); ++i) {
    std::cout << (i == 0 ? " " : ", ") << result.seeds[i];
  }
  std::cout << "\nspread (" << opts.diffusion << " model): " << result.spread
            << "\n";
  if (method != Method::kNonPrivate) {
    std::cout << "privacy: (" << result.epsilon_spent << ", "
              << config.budget.delta << ")-DP node-level\n";
    if (result.sharded) {
      std::cout << "privacy composition: parallel over " << opts.shards
                << " node-disjoint shard" << (opts.shards == 1 ? "" : "s")
                << " (epsilon = max over shards)\n";
    }
  } else {
    std::cout << "privacy: none (epsilon = inf)\n";
  }

  if (opts.with_celf &&
      config.eval_diffusion == PrivImConfig::EvalDiffusion::kExactIc) {
    const Graph& eval_graph = pipeline.eval_graph();
    std::vector<NodeId> candidates(eval_graph.num_nodes());
    for (size_t u = 0; u < candidates.size(); ++u) {
      candidates[u] = static_cast<NodeId>(u);
    }
    SpreadOracle oracle = MakeExactUnitOracle(eval_graph, config.eval_steps);
    PRIVIM_ASSIGN_OR_RETURN(SeedSelection celf,
                            CelfSelect(candidates, opts.k, oracle));
    std::cout << "CELF reference: " << celf.spread << " => coverage ratio "
              << FormatDouble(
                     CoverageRatioPercent(result.spread, celf.spread), 2)
              << "%\n";
  }

  if (!opts.save_model.empty()) {
    PRIVIM_RETURN_NOT_OK(SaveModel(*result.model, opts.save_model));
    std::cout << "model checkpoint written to " << opts.save_model << "\n";
  }

  if (!opts.driver.telemetry_path.empty()) {
    std::cout << "\n";
    pipeline.Telemetry().PrintSummary(std::cout);
    PRIVIM_RETURN_NOT_OK(
        pipeline.Telemetry().WriteJsonFile(opts.driver.telemetry_path));
    std::cout << "telemetry written to " << opts.driver.telemetry_path
              << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace privim

int main(int argc, char** argv) {
  return privim::DriverMain(privim::ParseArgs(argc, argv), privim::RunCli);
}
