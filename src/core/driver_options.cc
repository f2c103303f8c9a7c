#include "core/driver_options.h"

#include <charconv>
#include <cmath>

#include "common/rng.h"
#include "common/string_util.h"
#include "graph/datasets.h"
#include "graph/io.h"

namespace privim {

namespace {

// Wraps the names of AllDatasetSpecs() into the usage column.
std::string DatasetUsage() {
  std::string text = "  --dataset NAME     synthetic dataset stand-in (";
  size_t column = text.size();
  const auto& specs = AllDatasetSpecs();
  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string item =
        specs[i].name + (i + 1 < specs.size() ? "," : ")");
    if (i > 0 && column + 1 + item.size() > 72) {
      text += "\n                     ";
      column = 21;
    } else if (i > 0) {
      text += ' ';
      ++column;
    }
    text += item;
    column += item.size();
  }
  return text + "  [LastFM]\n";
}

}  // namespace

Result<uint64_t> ParseUnsignedFlag(const std::string& flag,
                                   const std::string& text, uint64_t max) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
    return Status::InvalidArgument(StrFormat(
        "%s expects a non-negative integer, got '%s'", flag.c_str(),
        text.c_str()));
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    return Status::InvalidArgument(StrFormat(
        "%s must be at most %llu, got %s", flag.c_str(),
        static_cast<unsigned long long>(max), text.c_str()));
  }
  return value;
}

Result<double> ParseRealFlag(const std::string& flag,
                             const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value)) {
    return Status::InvalidArgument(StrFormat(
        "%s expects a finite number, got '%s'", flag.c_str(), text.c_str()));
  }
  return value;
}

Result<std::string> FlagValue(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    return Status::InvalidArgument(
        StrFormat("%s requires a value", argv[i]));
  }
  return std::string(argv[++i]);
}

Result<uint64_t> UnsignedFlagValue(int argc, char** argv, int& i,
                                   uint64_t max) {
  const std::string flag = argv[i];
  PRIVIM_ASSIGN_OR_RETURN(std::string v, FlagValue(argc, argv, i));
  return ParseUnsignedFlag(flag, v, max);
}

Result<double> RealFlagValue(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  PRIVIM_ASSIGN_OR_RETURN(std::string v, FlagValue(argc, argv, i));
  return ParseRealFlag(flag, v);
}

Result<bool> DriverOptions::TryParse(int argc, char** argv, int& i,
                                     const Features& features) {
  const std::string arg = argv[i];
  if (arg == "--dataset") {
    PRIVIM_ASSIGN_OR_RETURN(dataset, FlagValue(argc, argv, i));
    return true;
  }
  if (arg == "--edge-list") {
    PRIVIM_ASSIGN_OR_RETURN(edge_list, FlagValue(argc, argv, i));
    return true;
  }
  if (arg == "--undirected") {
    undirected = true;
    return true;
  }
  if (arg == "--scale") {
    PRIVIM_ASSIGN_OR_RETURN(scale, RealFlagValue(argc, argv, i));
    return true;
  }
  if (arg == "--threads") {
    PRIVIM_ASSIGN_OR_RETURN(
        threads, UnsignedFlagValue(argc, argv, i, kMaxDriverThreads));
    return true;
  }
  if (arg == "--seed") {
    PRIVIM_ASSIGN_OR_RETURN(seed, UnsignedFlagValue(argc, argv, i));
    return true;
  }
  if (arg == "--telemetry") {
    PRIVIM_ASSIGN_OR_RETURN(telemetry_path, FlagValue(argc, argv, i));
    return true;
  }
  if (arg.rfind("--telemetry=", 0) == 0) {
    telemetry_path = arg.substr(std::string("--telemetry=").size());
    if (telemetry_path.empty()) {
      return Status::InvalidArgument("--telemetry requires a path");
    }
    return true;
  }
  if (arg == "--checkpoint-dir") {
    if (!features.checkpoint) {
      return Status::InvalidArgument(
          "--checkpoint-dir is not supported by this driver (no "
          "checkpointable pipeline)");
    }
    PRIVIM_ASSIGN_OR_RETURN(checkpoint_dir, FlagValue(argc, argv, i));
    return true;
  }
  if (arg == "--resume") {
    if (!features.checkpoint) {
      return Status::InvalidArgument(
          "--resume is not supported by this driver (no checkpointable "
          "pipeline)");
    }
    resume = true;
    return true;
  }
  return false;
}

Status DriverOptions::Validate(const Features& features) const {
  if (features.checkpoint && resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  if (edge_list.empty()) {
    PRIVIM_RETURN_NOT_OK(ParseDatasetId(dataset).status());
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("--scale must be positive");
  }
  return Status::OK();
}

std::string DriverOptions::UsageText(const Features& features) {
  std::string text =
      DatasetUsage() +
      "  --edge-list PATH   load a graph from an edge list instead\n"
      "  --undirected       treat the edge list as undirected\n"
      "  --scale X          synthetic dataset scale multiplier        [1.0]\n"
      "  --threads N        worker threads (0 = PRIVIM_THREADS or 1)  [0]\n"
      "  --seed N           master random seed                        [42]\n"
      "  --telemetry PATH   write run telemetry JSON\n";
  if (features.checkpoint) {
    text +=
        "  --checkpoint-dir PATH\n"
        "                     commit resumable snapshots to PATH\n"
        "  --resume           continue from the snapshots in "
        "--checkpoint-dir\n";
  }
  return text;
}

Result<DriverOptions::LoadedGraph> DriverOptions::LoadGraph() const {
  LoadedGraph out;
  if (!edge_list.empty()) {
    GraphBuildOptions load_opts;
    load_opts.build_in_csr = false;
    PRIVIM_ASSIGN_OR_RETURN(out.graph,
                            LoadEdgeList(edge_list, undirected, load_opts));
    out.source = edge_list;
    out.paper_nodes = out.graph.num_nodes();
    return out;
  }
  PRIVIM_ASSIGN_OR_RETURN(DatasetId id, ParseDatasetId(dataset));
  Rng gen_rng(seed);
  PRIVIM_ASSIGN_OR_RETURN(out.graph, MakeDataset(id, gen_rng, scale));
  out.source = GetDatasetSpec(id).name + " (synthetic stand-in)";
  out.paper_nodes = GetDatasetSpec(id).paper_nodes;
  return out;
}

}  // namespace privim
