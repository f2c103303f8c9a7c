#ifndef PRIVIM_SERVE_HARNESS_H_
#define PRIVIM_SERVE_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/request.h"
#include "serve/server.h"

namespace privim {

/// A named request mix: the templates one closed-loop client cycles
/// through. Clients walk the mix round-robin (client c starts at
/// template c % size so a multi-client run interleaves types) and stamp
/// each issued request with a counter-derived seed, keeping replays
/// deterministic per (mix, client count, base seed).
struct RequestMix {
  std::string name;
  std::vector<QueryRequest> templates;
};

/// Closed-loop load shape: each of `num_clients` threads keeps exactly one
/// request outstanding — the next is issued only when the previous
/// response lands. Offered load therefore adapts to service capacity,
/// which is the right harness for measuring server latency under
/// saturation without coordinated-omission artifacts.
struct LoadConfig {
  size_t num_clients = 1;
  /// Requests per client; total = num_clients * requests_per_client.
  size_t requests_per_client = 100;
  /// Base seed for the per-request seed derivation.
  uint64_t base_seed = 42;
  /// Warmup requests per client, issued and timed but excluded from the
  /// report (first-touch allocations and cache fill land here).
  size_t warmup_per_client = 4;
};

/// One load run's report. Latencies are end-to-end Query() wall times in
/// seconds, quantiles computed over the merged post-warmup sample.
struct LoadReport {
  size_t completed = 0;
  /// ResourceExhausted admissions; the client retries, so every request
  /// eventually completes — this counts backpressure events, not losses.
  size_t rejected = 0;
  /// Queries that returned a non-OK terminal status (excludes retried
  /// rejections).
  size_t failed = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_mean = 0.0;
};

/// Drives `server` (which must be Start()ed) with `config.num_clients`
/// closed-loop client threads issuing `mix` and returns the merged report.
/// Responses are checksummed as they arrive so the measured path includes
/// reading the answer.
Result<LoadReport> RunClosedLoopLoad(Server& server, const RequestMix& mix,
                                     const LoadConfig& config);

/// Standard request mixes over an `num_nodes`-node graph, used by
/// bench_serve and the privim_serve driver so published numbers and ad-hoc
/// runs measure the same shapes:
///  - "seed-selection": top-k queries (k 10/25/50) with exact 1-hop
///    spread scoring — the model-ranking shape (a prefix of the
///    snapshot's ranking plus one exact spread).
///  - "spread-analytics": spread + marginal-gain queries under the MC
///    estimator — the diffusion-heavy shape.
///  - "mixed": both of the above interleaved.
/// Mixes derive their node sets from `seed`, so a given (num_nodes, seed)
/// pair always produces identical request streams.
std::vector<RequestMix> StandardMixes(size_t num_nodes, uint64_t seed);

}  // namespace privim

#endif  // PRIVIM_SERVE_HARNESS_H_
