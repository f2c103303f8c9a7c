#ifndef PRIVIM_CORE_DRIVER_OPTIONS_H_
#define PRIVIM_CORE_DRIVER_OPTIONS_H_

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "common/result.h"
#include "graph/graph.h"

namespace privim {

/// Upper bound of every flag that starts one thread per unit (--threads,
/// privim_serve's --clients).
inline constexpr uint64_t kMaxDriverThreads = 1024;

/// Upper bound of every flag that sizes an up-front allocation
/// (privim_serve's --sketch-sets and --queue-capacity, privim_stream's
/// --sketch-sets and --updates-per-batch).
inline constexpr uint64_t kMaxDriverBuffer = uint64_t{1} << 22;

/// Strict numeric flag values: the whole of `text` must be the number.
/// Empty values, trailing junk, a sign on an unsigned flag, and values
/// above `max` (or outside the type) are InvalidArgument naming `flag`.
Result<uint64_t> ParseUnsignedFlag(
    const std::string& flag, const std::string& text,
    uint64_t max = std::numeric_limits<uint64_t>::max());
/// Same for real-valued flags; non-finite values are rejected too.
Result<double> ParseRealFlag(const std::string& flag,
                             const std::string& text);

/// The value argument of the flag at argv[i]: advances `i` onto it, or
/// InvalidArgument when the flag is the last argument.
Result<std::string> FlagValue(int argc, char** argv, int& i);
/// FlagValue read through ParseUnsignedFlag / ParseRealFlag.
Result<uint64_t> UnsignedFlagValue(
    int argc, char** argv, int& i,
    uint64_t max = std::numeric_limits<uint64_t>::max());
Result<double> RealFlagValue(int argc, char** argv, int& i);

/// The flags every privim driver shares (privim_cli, privim_serve,
/// privim_stream), parsed by one implementation so spellings, defaults,
/// and validation never drift between binaries (docs/api.md):
///
///   --dataset NAME        synthetic stand-in (AllDatasetSpecs())
///   --edge-list PATH      load the graph from an edge list instead
///   --undirected          treat the edge list as undirected
///   --scale X             synthetic dataset scale multiplier
///   --threads N           worker parallelism (0 = PRIVIM_THREADS or 1)
///   --seed N              master random seed
///   --telemetry PATH      write run telemetry JSON (also --telemetry=PATH)
///   --checkpoint-dir PATH snapshot directory (drivers with checkpointing)
///   --resume              continue from --checkpoint-dir's snapshots
struct DriverOptions {
  std::string dataset = "LastFM";
  std::string edge_list;
  bool undirected = false;
  double scale = 1.0;
  size_t threads = 0;
  uint64_t seed = 42;
  std::string telemetry_path;
  std::string checkpoint_dir;
  bool resume = false;

  /// Which of the shared flags a driver supports. privim_serve has no
  /// checkpointable pipeline, so it builds with checkpoint = false and
  /// the parser rejects --checkpoint-dir/--resume with an error naming
  /// the restriction instead of silently ignoring them.
  struct Features {
    bool checkpoint = true;
  };

  /// Attempts to consume argv[i] (and its value argument, if any) as a
  /// shared flag. Returns true and advances `i` past the consumed
  /// arguments on success; returns false (leaving `i` untouched) when
  /// argv[i] is not a shared flag, so the driver's own parser handles it;
  /// returns InvalidArgument on a malformed or unsupported shared flag.
  /// The overloads without `features` use the defaults (all enabled).
  Result<bool> TryParse(int argc, char** argv, int& i,
                        const Features& features);
  Result<bool> TryParse(int argc, char** argv, int& i) {
    return TryParse(argc, argv, i, Features{});
  }

  /// Cross-flag validation, called once after the full command line is
  /// parsed: --resume requires --checkpoint-dir, --dataset must name a
  /// known stand-in (unless --edge-list is given), --scale must be
  /// positive.
  Status Validate(const Features& features) const;
  Status Validate() const { return Validate(Features{}); }

  /// Usage text for the shared flags, formatted like the drivers' own
  /// blocks (two-space indent), listing only the flags `features` enables.
  /// The dataset names come from AllDatasetSpecs().
  static std::string UsageText(const Features& features);
  static std::string UsageText() { return UsageText(Features{}); }

  /// The graph the flags select. Edge lists load out-adjacency only (half
  /// the arc storage while the parsed edge buffer is alive,
  /// docs/scale.md); callers that scan in-edges call EnsureInCsr(), which
  /// is bit-identical to an up-front in-CSR build.
  struct LoadedGraph {
    Graph graph;
    /// "PATH" or "NAME (synthetic stand-in)".
    std::string source;
    /// The paper's node count for a stand-in, the loaded count otherwise
    /// (the indicator's auto-tune input).
    size_t paper_nodes = 0;
  };
  Result<LoadedGraph> LoadGraph() const;
};

/// The drivers' exit protocol: a command line that does not parse exits
/// 2, a failed run exits 1, each with its Status on stderr; success exits
/// 0.
template <typename Options>
int DriverMain(const Result<Options>& options,
               Status (*run)(const Options&)) {
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    return 2;
  }
  const Status status = run(*options);
  if (!status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  return 0;
}

}  // namespace privim

#endif  // PRIVIM_CORE_DRIVER_OPTIONS_H_
