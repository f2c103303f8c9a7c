// privim_serve: stand up the online influence-query server (src/serve/)
// over a dataset or edge list and drive it with the standard closed-loop
// request mixes, reporting QPS and latency quantiles.
//
//   privim_serve --dataset LastFM --threads 4 --mix mixed
//   privim_serve --edge-list graph.txt --snapshot model.ckpt \
//                --threads 8 --telemetry serve_telemetry.json
//
// With --snapshot the server answers top-k queries from that trained
// checkpoint (the file written by privim_cli --save-model); without it a
// randomly initialized model of the same architecture stands in, which
// exercises the identical serving path — useful for capacity planning
// before a model exists. Queries are DP post-processing either way: the
// checkpoint was trained under the privacy budget, and serving reads it
// without touching training data (docs/serving.md).

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/driver_options.h"
#include "nn/features.h"
#include "nn/gnn.h"
#include "obs/telemetry.h"
#include "serve/harness.h"
#include "serve/server.h"

namespace privim {
namespace {

struct ServeCliOptions {
  std::string snapshot;
  std::string mix = "all";  // all | seed-selection | spread-analytics | mixed
  size_t clients = 0;       // 0 = 2x threads
  size_t requests = 200;    // per client
  size_t sketch_sets = 2048;
  size_t queue_capacity = 1024;
  /// Shared driver flags (core/driver_options.h). Serving has no
  /// checkpointable pipeline, so --checkpoint-dir/--resume are rejected.
  DriverOptions driver;

  static constexpr DriverOptions::Features kFeatures{/*checkpoint=*/false};
};

void PrintUsage() {
  std::cout << R"(privim_serve: drive the online influence-query server

  --snapshot PATH    model checkpoint to serve (privim_cli --save-model);
                     omitted = randomly initialized stand-in model
  --mix NAME         seed-selection, spread-analytics, mixed, or all [all]
  --clients N        closed-loop client threads (0 = 2x workers)    [0]
  --requests N       requests per client                            [200]
  --sketch-sets N    resident RR-sketch size (0 disables sketch) [2048]
  --queue-capacity N admission bound; beyond it clients see
                     ResourceExhausted backpressure             [1024]
)" << DriverOptions::UsageText(ServeCliOptions::kFeatures)
            << "  --help             this text\n";
}

Result<ServeCliOptions> ParseArgs(int argc, char** argv) {
  ServeCliOptions opts;
  for (int i = 1; i < argc; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(
        bool shared,
        opts.driver.TryParse(argc, argv, i, ServeCliOptions::kFeatures));
    if (shared) continue;
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--snapshot") {
      PRIVIM_ASSIGN_OR_RETURN(opts.snapshot, FlagValue(argc, argv, i));
    } else if (arg == "--mix") {
      PRIVIM_ASSIGN_OR_RETURN(opts.mix, FlagValue(argc, argv, i));
    } else if (arg == "--clients") {
      PRIVIM_ASSIGN_OR_RETURN(
          opts.clients, UnsignedFlagValue(argc, argv, i, kMaxDriverThreads));
    } else if (arg == "--requests") {
      PRIVIM_ASSIGN_OR_RETURN(opts.requests,
                              UnsignedFlagValue(argc, argv, i));
    } else if (arg == "--sketch-sets") {
      PRIVIM_ASSIGN_OR_RETURN(
          opts.sketch_sets,
          UnsignedFlagValue(argc, argv, i, kMaxDriverBuffer));
    } else if (arg == "--queue-capacity") {
      PRIVIM_ASSIGN_OR_RETURN(
          opts.queue_capacity,
          UnsignedFlagValue(argc, argv, i, kMaxDriverBuffer));
    } else {
      return Status::InvalidArgument("unknown flag " + arg +
                                     " (see --help)");
    }
  }
  if (opts.requests == 0) {
    return Status::InvalidArgument("--requests must be >= 1");
  }
  PRIVIM_RETURN_NOT_OK(opts.driver.Validate(ServeCliOptions::kFeatures));
  return opts;
}

Status Run(const ServeCliOptions& opts) {
  // ---- Graph. ----
  PRIVIM_ASSIGN_OR_RETURN(DriverOptions::LoadedGraph loaded,
                          opts.driver.LoadGraph());
  // Snapshot features read in-degrees and the RR sketch walks in-edges:
  // materialize the in-CSR before the Server freezes the graph as const —
  // its worker threads must never be the first to need it.
  PRIVIM_RETURN_NOT_OK(loaded.graph.EnsureInCsr());
  const Graph& graph = loaded.graph;
  std::cout << "graph: " << loaded.source << " — " << graph.num_nodes()
            << " nodes, " << graph.num_edges() << " arcs\n";

  // ---- Server. ----
  RunTelemetry telemetry;
  ServeConfig cfg;
  cfg.num_threads = opts.driver.threads;
  cfg.queue_capacity = opts.queue_capacity;
  cfg.rr_sketch_sets = opts.sketch_sets;
  cfg.metrics =
      opts.driver.telemetry_path.empty() ? nullptr : &telemetry.metrics;
  Server server(graph, cfg);

  if (!opts.snapshot.empty()) {
    PRIVIM_ASSIGN_OR_RETURN(const uint64_t id,
                            server.LoadSnapshot(opts.snapshot));
    std::cout << "snapshot: " << opts.snapshot << " (id " << id << ")\n";
  } else {
    GnnConfig gnn;
    gnn.type = GnnType::kGrat;
    gnn.in_dim = kNodeFeatureDim;
    Rng model_rng(opts.driver.seed + 1);
    auto model = std::make_unique<GnnModel>(gnn, model_rng);
    PRIVIM_ASSIGN_OR_RETURN(
        std::shared_ptr<const ModelSnapshot> snap,
        ModelSnapshot::FromModel(std::move(model), graph));
    PRIVIM_RETURN_NOT_OK(server.SwapSnapshot(std::move(snap)));
    std::cout << "snapshot: randomly initialized stand-in model "
                 "(pass --snapshot to serve a trained checkpoint)\n";
  }
  PRIVIM_RETURN_NOT_OK(server.Start());
  std::cout << "serving on " << server.num_threads() << " worker thread"
            << (server.num_threads() == 1 ? "" : "s") << "\n\n";

  // ---- Load. ----
  std::vector<RequestMix> mixes =
      StandardMixes(graph.num_nodes(), opts.driver.seed + 2);
  if (opts.mix != "all") {
    std::vector<RequestMix> selected;
    for (RequestMix& mix : mixes) {
      if (mix.name == opts.mix) selected.push_back(std::move(mix));
    }
    if (selected.empty()) {
      return Status::InvalidArgument(
          StrFormat("unknown mix '%s' (want seed-selection, "
                    "spread-analytics, mixed, or all)",
                    opts.mix.c_str()));
    }
    mixes = std::move(selected);
  }

  LoadConfig load;
  load.num_clients =
      opts.clients != 0 ? opts.clients : 2 * server.num_threads();
  load.requests_per_client = opts.requests;
  load.base_seed = opts.driver.seed + 3;

  TablePrinter table({"Mix", "QPS", "p50 ms", "p95 ms", "p99 ms",
                      "mean ms", "rejected"});
  for (const RequestMix& mix : mixes) {
    PRIVIM_ASSIGN_OR_RETURN(const LoadReport report,
                            RunClosedLoopLoad(server, mix, load));
    if (report.failed != 0) {
      return Status::Internal(StrFormat(
          "%zu queries of mix '%s' failed", report.failed,
          mix.name.c_str()));
    }
    table.AddRow(mix.name,
                 {report.qps, report.latency_p50 * 1e3,
                  report.latency_p95 * 1e3, report.latency_p99 * 1e3,
                  report.latency_mean * 1e3,
                  static_cast<double>(report.rejected)},
                 2);
  }
  server.Stop();
  table.Print(std::cout);

  if (!opts.driver.telemetry_path.empty()) {
    telemetry.PrintSummary(std::cout);
    PRIVIM_RETURN_NOT_OK(
        telemetry.WriteJsonFile(opts.driver.telemetry_path));
    std::cout << "telemetry written to " << opts.driver.telemetry_path
              << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace privim

int main(int argc, char** argv) {
  return privim::DriverMain(privim::ParseArgs(argc, argv), privim::Run);
}
