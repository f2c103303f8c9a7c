// privim_stream: replay a timestamped update stream through the
// dynamic-graph pipeline (src/stream/, docs/streaming.md) — a mutable
// GraphDelta overlay absorbs each batch, the resident RR sketch repairs
// incrementally (bit-identical to a full rebuild), drift/staleness
// triggers re-enter DP-GNN training through the Pipeline facade, and the
// continual-observation ledger composes epsilon across rounds. Emits the
// utility-vs-time-vs-epsilon curve.
//
//   privim_stream --dataset LastFM --batches 50 --epsilon 2
//   privim_stream --batches 100 --retrain-drift 0.05 --curves curve.json
//   privim_stream --batches 40 --checkpoint-dir ck/ --resume
//
// A killed run restarted with --resume continues bit-identically from the
// last completed batch — tested in tests/stream/.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/driver_options.h"
#include "core/privim.h"
#include "stream/stream_pipeline.h"

namespace privim {
namespace {

struct StreamCliOptions {
  std::string method = "PrivIM*";
  double epsilon = 2.0;
  size_t k = 50;
  size_t batches = 20;
  size_t updates_per_batch = 64;
  double add_fraction = 0.6;
  double retrain_drift = 0.1;
  size_t retrain_every = 0;
  size_t sketch_sets = 256;
  size_t utility_steps = 1;
  std::string curves_path;
  DriverOptions driver;
};

void PrintUsage() {
  std::cout <<
      R"(privim_stream — dynamic-graph streaming PrivIM pipeline

  --method NAME          PrivIM*, PrivIM, PrivIM+SCS, EGN, HP, HP-GRAT,
                         Non-Private                            [PrivIM*]
  --epsilon X            per-round privacy budget; rounds compose
                         in the continual-observation ledger    [2.0]
  --k N                  seed budget per released set           [50]
  --batches N            update batches to replay               [20]
  --updates-per-batch N  events per synthetic batch             [64]
  --add-fraction X       fraction of events adding an edge      [0.6]
  --retrain-drift X      retrain when this fraction of arcs has
                         changed since training (0 disables)    [0.1]
  --retrain-every N      retrain every N batches (0 disables)   [0]
  --sketch-sets N        resident RR-sketch size                [256]
  --utility-steps N      diffusion steps of the utility metric  [1]
  --curves PATH          write the utility-vs-time-vs-epsilon
                         history as JSON rows
)" << DriverOptions::UsageText()
            << "  --help                 this text\n";
}

Result<StreamCliOptions> ParseArgs(int argc, char** argv) {
  StreamCliOptions opts;
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
    } else if (arg == "--epsilon") {
      PRIVIM_ASSIGN_OR_RETURN(opts.epsilon, RealFlagValue(argc, argv, i));
    } else if (arg == "--k") {
      PRIVIM_ASSIGN_OR_RETURN(opts.k, UnsignedFlagValue(argc, argv, i));
    } else if (arg == "--batches") {
      PRIVIM_ASSIGN_OR_RETURN(opts.batches, UnsignedFlagValue(argc, argv, i));
    } else if (arg == "--updates-per-batch") {
      PRIVIM_ASSIGN_OR_RETURN(
          opts.updates_per_batch,
          UnsignedFlagValue(argc, argv, i, kMaxDriverBuffer));
    } else if (arg == "--add-fraction") {
      PRIVIM_ASSIGN_OR_RETURN(opts.add_fraction,
                              RealFlagValue(argc, argv, i));
    } else if (arg == "--retrain-drift") {
      PRIVIM_ASSIGN_OR_RETURN(opts.retrain_drift,
                              RealFlagValue(argc, argv, i));
    } else if (arg == "--retrain-every") {
      PRIVIM_ASSIGN_OR_RETURN(opts.retrain_every,
                              UnsignedFlagValue(argc, argv, i));
    } else if (arg == "--sketch-sets") {
      PRIVIM_ASSIGN_OR_RETURN(
          opts.sketch_sets,
          UnsignedFlagValue(argc, argv, i, kMaxDriverBuffer));
    } else if (arg == "--utility-steps") {
      PRIVIM_ASSIGN_OR_RETURN(
          opts.utility_steps,
          UnsignedFlagValue(argc, argv, i, std::numeric_limits<int>::max()));
    } else if (arg == "--curves") {
      PRIVIM_ASSIGN_OR_RETURN(opts.curves_path, FlagValue(argc, argv, i));
    } else {
      return Status::InvalidArgument("unknown flag " + arg +
                                     " (try --help)");
    }
  }
  if (opts.k == 0) return Status::InvalidArgument("--k must be positive");
  if (opts.epsilon <= 0) {
    return Status::InvalidArgument("--epsilon must be positive");
  }
  if (opts.updates_per_batch == 0) {
    return Status::InvalidArgument("--updates-per-batch must be positive");
  }
  if (opts.add_fraction < 0.0 || opts.add_fraction > 1.0) {
    return Status::InvalidArgument("--add-fraction must be in [0, 1]");
  }
  if (opts.sketch_sets == 0) {
    return Status::InvalidArgument("--sketch-sets must be positive");
  }
  PRIVIM_RETURN_NOT_OK(opts.driver.Validate());
  return opts;
}

Status WriteCurves(const std::vector<StreamStepRecord>& history,
                   const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out << "[\n";
  for (size_t i = 0; i < history.size(); ++i) {
    const StreamStepRecord& r = history[i];
    out << "  {\"batch\": " << r.batch
        << ", \"events_applied\": " << r.events_applied
        << ", \"events_skipped\": " << r.events_skipped
        << ", \"repaired_sets\": " << r.repaired_sets
        << ", \"invalidated_balls\": " << r.invalidated_balls
        << ", \"retrained\": " << (r.retrained ? "true" : "false")
        << ", \"visible_nodes\": " << r.visible_nodes
        << ", \"visible_arcs\": " << r.visible_arcs
        << ", \"cumulative_epsilon\": " << r.cumulative_epsilon
        << ", \"utility\": " << r.utility
        << ", \"seconds\": " << r.seconds << "}"
        << (i + 1 < history.size() ? "," : "") << "\n";
  }
  out << "]\n";
  if (!out.good()) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Status RunStreamCli(const StreamCliOptions& opts) {
  // ---- Initial graph (StreamPipeline::Build materializes its in-CSR). ----
  PRIVIM_ASSIGN_OR_RETURN(DriverOptions::LoadedGraph loaded,
                          opts.driver.LoadGraph());
  Graph& initial = loaded.graph;
  std::cout << "graph: " << loaded.source << " — " << initial.num_nodes()
            << " nodes, " << initial.num_edges() << " arcs\n";

  // ---- Stream configuration. ----
  PRIVIM_ASSIGN_OR_RETURN(Method method, ParseMethod(opts.method));
  StreamOptions stream;
  stream.method =
      MakeDefaultConfig(method, opts.epsilon, initial.num_nodes());
  stream.method.seed_count = opts.k;
  stream.method.runtime.num_threads = opts.driver.threads;
  stream.retrain.drift_fraction = opts.retrain_drift;
  stream.retrain.staleness_batches = opts.retrain_every;
  stream.gen.events_per_batch = opts.updates_per_batch;
  stream.gen.add_fraction = opts.add_fraction;
  stream.rr_sketch_sets = opts.sketch_sets;
  stream.utility_steps = static_cast<int>(opts.utility_steps);
  stream.seed = opts.driver.seed;
  stream.num_threads = opts.driver.threads;
  stream.checkpoint_dir = opts.driver.checkpoint_dir;
  stream.resume = opts.driver.resume;

  PRIVIM_ASSIGN_OR_RETURN(
      std::unique_ptr<StreamPipeline> pipeline,
      StreamPipeline::Build(std::move(initial), std::move(stream)));

  std::cout << "method: " << MethodName(method) << ", per-round epsilon "
            << opts.epsilon << ", sketch " << opts.sketch_sets
            << " sets\n";
  if (pipeline->batches_applied() > 0) {
    std::cout << "resumed at batch " << pipeline->batches_applied()
              << " (epsilon so far "
              << FormatDouble(pipeline->CumulativeEpsilon(), 4) << ")\n";
  }

  // ---- Replay (resume-aware: Step() continues the same pure stream). ----
  while (pipeline->batches_applied() < opts.batches) {
    PRIVIM_ASSIGN_OR_RETURN(StreamStepRecord row, pipeline->Step());
    std::cout << "batch " << row.batch << ": +" << row.events_applied
              << " events (" << row.events_skipped << " skipped), repaired "
              << row.repaired_sets << "/" << pipeline->sketch().num_sets()
              << " sets, " << row.invalidated_balls << " balls dropped"
              << (row.retrained ? ", RETRAINED" : "") << ", utility "
              << FormatDouble(row.utility, 1) << ", epsilon "
              << FormatDouble(row.cumulative_epsilon, 4) << " ["
              << FormatDouble(row.seconds, 3) << "s]\n";
  }

  // ---- Summary: the utility-vs-time-vs-epsilon curve. ----
  const std::vector<StreamStepRecord>& history = pipeline->history();
  std::cout << "\n";
  TablePrinter table(
      {"Batch", "arcs", "repaired", "retrain", "utility", "epsilon"});
  for (const StreamStepRecord& r : history) {
    table.AddRow(StrFormat("%llu", static_cast<unsigned long long>(r.batch)),
                 {static_cast<double>(r.visible_arcs),
                  static_cast<double>(r.repaired_sets),
                  static_cast<double>(r.retrained), r.utility,
                  r.cumulative_epsilon},
                 3);
  }
  table.Print(std::cout);

  std::cout << "\nseeds (" << pipeline->seeds().size() << "):";
  for (size_t i = 0; i < pipeline->seeds().size(); ++i) {
    std::cout << (i == 0 ? " " : ", ") << pipeline->seeds()[i];
  }
  std::cout << "\nretraining rounds: " << pipeline->num_retrains() << "\n";
  if (method != Method::kNonPrivate) {
    std::cout << "privacy: cumulative epsilon "
              << FormatDouble(pipeline->CumulativeEpsilon(), 4)
              << " over " << pipeline->accountant().rounds().size()
              << " composed rounds (continual observation)\n";
  } else {
    std::cout << "privacy: none (epsilon = inf)\n";
  }

  if (!opts.curves_path.empty()) {
    PRIVIM_RETURN_NOT_OK(WriteCurves(history, opts.curves_path));
    std::cout << "curves written to " << opts.curves_path << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace privim

int main(int argc, char** argv) {
  return privim::DriverMain(privim::ParseArgs(argc, argv), privim::RunStreamCli);
}
