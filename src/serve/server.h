#ifndef PRIVIM_SERVE_SERVER_H_
#define PRIVIM_SERVE_SERVER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "im/rr_sets.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/snapshot.h"

namespace privim {

/// Tuning knobs of one Server instance (docs/serving.md).
struct ServeConfig {
  /// Worker threads executing queries. 0 defers to the global runtime
  /// default (PRIVIM_THREADS, else 1) exactly like RuntimeOptions.
  size_t num_threads = 0;
  /// Admission bound of the request queue; pushes beyond it are rejected
  /// with ResourceExhausted (never queued unboundedly).
  size_t queue_capacity = 1024;
  /// Maximum queries one worker claims per queue round-trip. Batching
  /// amortizes the queue lock and the snapshot acquisition: one batch,
  /// one atomic snapshot reference, so all its queries answer from the
  /// same model version.
  size_t max_batch = 8;
  /// Resident RR-sketch size for the kRrSketch estimator; 0 disables the
  /// sketch (requests selecting it then fail with FailedPrecondition).
  /// The sketch is drawn at QueryRequest's default max_steps, the paper's
  /// j = 1, and answers only kRrSketch requests at that horizon.
  size_t rr_sketch_sets = 0;
  /// Seed for the resident sketch's generation.
  uint64_t rr_sketch_seed = 0x5e7;
  /// Optional run telemetry; instruments are registered once at
  /// construction and recorded lock-free while serving (per-query-type
  /// latency histograms, queue-depth gauge, scratch-reuse counters).
  MetricsRegistry* metrics = nullptr;
};

/// Long-running influence-query server over one resident graph.
///
/// Lifecycle:
///   Server server(graph, config);          // no threads yet
///   server.LoadSnapshot(path);             // or SwapSnapshot(...)
///   server.Start();                        // spawn workers, serve
///   ... Query() from any number of client threads ...
///   server.Stop();                         // drain, then join
///
/// Hot swap: the full serving state — resident graph, ModelSnapshot, and
/// resident RR sketch — lives behind one shared_ptr that LoadSnapshot /
/// SwapSnapshot / SwapGraphAndSnapshot replace atomically (readers copy
/// the pointer under a short critical section — RCU by reference
/// counting). Workers take ONE state reference per batch, so every query
/// in a batch answers from a consistent (graph, model, sketch) triple;
/// queries already executing keep their reference, so they complete on
/// the version they started with, and the retired state (including a
/// swapped-out graph) is destroyed when its last in-flight query
/// finishes. Every response records the serving snapshot's id, making the
/// swap observable and testable (no torn reads: each answer is the pure
/// function of exactly one state).
///
/// Dynamic graphs (docs/streaming.md): SwapGraphAndSnapshot publishes a
/// graph-owning snapshot, replacing graph and model TOGETHER — the
/// resident sketch is regenerated against the new graph before anything
/// becomes visible, so no batch can ever pair the new model with the old
/// topology or vice versa.
///
/// Queries may be submitted before Start(): they are admitted into the
/// bounded queue (backpressure applies) and execute once workers exist.
/// Stop() closes admissions, drains every already-admitted query, then
/// joins the workers — no query that was ever accepted goes unanswered.
class Server {
 public:
  /// Borrows `graph`, which must outlive the server.
  Server(const Graph& graph, const ServeConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads a model checkpoint (nn/serialization.h), compiles it into a
  /// snapshot against the resident graph, and publishes it. Error
  /// statuses name the offending file and hint at artifact/version
  /// mismatches. The returned id identifies the published snapshot.
  Result<uint64_t> LoadSnapshot(const std::string& path);

  /// Publishes an already-built snapshot (must target the current
  /// resident graph, which it keeps). In-flight queries finish on the
  /// previous snapshot.
  Status SwapSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Publishes a graph-owning snapshot (ModelSnapshot::FromModel with a
  /// shared graph), replacing the resident graph AND the model in one
  /// atomic swap; the resident RR sketch (when configured) is regenerated
  /// against the new graph before publication. Fails with InvalidArgument
  /// when the snapshot does not own a graph. In-flight queries finish on
  /// the previous (graph, model, sketch) triple, which stays alive until
  /// they drain.
  Status SwapGraphAndSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The currently published snapshot (nullptr before the first load).
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const;

  /// The graph queries are answered against right now: the construction
  /// graph until the first SwapGraphAndSnapshot, the latest swapped-in
  /// graph afterwards. The pointer stays valid as long as the caller
  /// holds it (the state machinery keeps retired graphs alive for
  /// borrowers the same way it does for in-flight queries).
  std::shared_ptr<const Graph> CurrentGraph() const;

  /// The current resident sketch (nullptr when rr_sketch_sets == 0).
  std::shared_ptr<const RrSketch> CurrentSketch() const;

  /// Spawns the worker pool and begins executing queued queries.
  /// Idempotent; fails after Stop() (servers are not restartable).
  Status Start();

  /// Closes admissions, drains every admitted query, joins the workers,
  /// and flushes scratch statistics into the metrics registry. Safe to
  /// call twice; the destructor calls it.
  void Stop();

  /// Blocking query: admits the request (ResourceExhausted when the
  /// queue is full, FailedPrecondition after Stop) and waits for the
  /// response. Callable from any thread.
  Status Query(const QueryRequest& request, QueryResponse& response);

  /// Non-blocking admission: the caller owns request/response/completion
  /// until completion->Signal fires (completion->Wait() collects the
  /// final status). The building block of Query() and of external event
  /// loops.
  Status SubmitAsync(const QueryRequest* request, QueryResponse* response,
                     QueryCompletion* completion);

  size_t num_threads() const { return num_threads_; }
  size_t queue_depth() const { return queue_.size(); }

 private:
  struct ServeMetrics;

  /// One consistent serving version: the graph, the model compiled
  /// against it, and the sketch generated from it. Immutable once
  /// published; swapped as a unit.
  struct ServingState {
    std::shared_ptr<const Graph> graph;
    std::shared_ptr<const ModelSnapshot> snapshot;
    std::shared_ptr<const RrSketch> sketch;
  };

  std::shared_ptr<const ServingState> CurrentState() const;
  void Publish(std::shared_ptr<const ServingState> next);
  /// Builds the resident sketch for `graph` per config_ (null when
  /// disabled or the graph is empty).
  Result<std::shared_ptr<const RrSketch>> BuildSketch(
      const Graph& graph) const;

  void WorkerLoop(size_t slot);
  void FlushWorkspaceStats();

  const Graph& graph_;
  ServeConfig config_;
  size_t num_threads_;
  RequestQueue queue_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;

  mutable std::mutex state_mu_;
  std::shared_ptr<const ServingState> state_;

  std::unique_ptr<ThreadPool> pool_;
  bool started_ = false;
  bool stopped_ = false;

  std::unique_ptr<ServeMetrics> m_;
};

}  // namespace privim

#endif  // PRIVIM_SERVE_SERVER_H_
