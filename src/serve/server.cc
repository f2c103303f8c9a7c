#include "serve/server.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "runtime/runtime.h"

namespace privim {

/// Instrument pointers, registered once at construction so the serving
/// hot path records through stable pointers without touching the
/// registry mutex (the obs-layer contract). All null when telemetry is
/// off.
struct Server::ServeMetrics {
  Counter* accepted = nullptr;
  Counter* rejected = nullptr;
  Counter* completed = nullptr;
  Counter* failed = nullptr;
  Counter* batches = nullptr;
  Counter* snapshot_swaps = nullptr;
  Counter* graph_swaps = nullptr;
  Gauge* queue_depth = nullptr;
  Histogram* batch_size = nullptr;
  /// End-to-end (queue wait + service) latency per query type, seconds.
  Histogram* latency_topk = nullptr;
  Histogram* latency_spread = nullptr;
  Histogram* latency_marginal = nullptr;

  explicit ServeMetrics(MetricsRegistry& reg, size_t max_batch) {
    accepted = reg.GetCounter("serve.requests.accepted");
    rejected = reg.GetCounter("serve.requests.rejected");
    completed = reg.GetCounter("serve.requests.completed");
    failed = reg.GetCounter("serve.requests.failed");
    batches = reg.GetCounter("serve.batches");
    snapshot_swaps = reg.GetCounter("serve.snapshot_swaps");
    graph_swaps = reg.GetCounter("serve.graph_swaps");
    queue_depth = reg.GetGauge("serve.queue_depth");
    batch_size =
        reg.GetHistogram("serve.batch_size",
                         LinearBuckets(1.0, std::max<size_t>(max_batch, 1)));
    // 1 us .. ~8 s, doubling: covers a cache-warm exact query through a
    // deep Monte-Carlo scan on a 100k-node graph.
    const std::vector<double> lat = ExponentialBuckets(1e-6, 2.0, 24);
    latency_topk = reg.GetHistogram("serve.latency.topk", lat);
    latency_spread = reg.GetHistogram("serve.latency.spread", lat);
    latency_marginal = reg.GetHistogram("serve.latency.marginal", lat);
  }

  Histogram* LatencyFor(QueryType type) {
    switch (type) {
      case QueryType::kTopK:
        return latency_topk;
      case QueryType::kSpread:
        return latency_spread;
      case QueryType::kMarginalGain:
        return latency_marginal;
    }
    return nullptr;
  }
};

Server::Server(const Graph& graph, const ServeConfig& config)
    : graph_(graph),
      config_(config),
      num_threads_(ResolveNumThreads(config.num_threads)),
      queue_(std::max<size_t>(config.queue_capacity, 1)) {
  engines_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    engines_.push_back(std::make_unique<QueryEngine>());
  }
  auto initial = std::make_shared<ServingState>();
  // Aliasing non-owning pointer: the construction graph is borrowed (the
  // caller keeps it alive per the constructor contract); graphs swapped
  // in later arrive owned by their snapshot.
  initial->graph = std::shared_ptr<const Graph>(
      std::shared_ptr<const void>(), &graph_);
  Result<std::shared_ptr<const RrSketch>> sketch = BuildSketch(graph_);
  PRIVIM_CHECK(sketch.ok()) << "resident RR sketch generation failed: "
                            << sketch.status().ToString();
  initial->sketch = std::move(sketch).ValueOrDie();
  state_ = std::move(initial);
  if (config_.metrics != nullptr) {
    m_ = std::make_unique<ServeMetrics>(*config_.metrics, config_.max_batch);
  }
}

Server::~Server() { Stop(); }

Result<std::shared_ptr<const RrSketch>> Server::BuildSketch(
    const Graph& graph) const {
  if (config_.rr_sketch_sets == 0 || graph.num_nodes() == 0) {
    return std::shared_ptr<const RrSketch>();
  }
  Rng sketch_rng(config_.rr_sketch_seed);
  PRIVIM_ASSIGN_OR_RETURN(
      RrSketch sketch,
      RrSketch::Generate(graph, config_.rr_sketch_sets,
                         QueryRequest{}.max_steps, sketch_rng, num_threads_));
  return std::make_shared<const RrSketch>(std::move(sketch));
}

Result<uint64_t> Server::LoadSnapshot(const std::string& path) {
  PRIVIM_ASSIGN_OR_RETURN(std::shared_ptr<const ModelSnapshot> snap,
                          ModelSnapshot::Load(path, *CurrentState()->graph));
  const uint64_t id = snap->id();
  PRIVIM_RETURN_NOT_OK(SwapSnapshot(std::move(snap)));
  return id;
}

Status Server::SwapSnapshot(std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot publish a null snapshot");
  }
  const std::shared_ptr<const ServingState> current = CurrentState();
  if (snapshot->num_nodes() != current->graph->num_nodes()) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot was compiled against a %zu-node graph, the resident "
        "graph has %zu nodes",
        snapshot->num_nodes(), current->graph->num_nodes()));
  }
  auto next = std::make_shared<ServingState>(*current);
  next->snapshot = std::move(snapshot);
  Publish(std::move(next));
  if (m_ != nullptr) m_->snapshot_swaps->Add(1);
  return Status::OK();
}

Status Server::SwapGraphAndSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot publish a null snapshot");
  }
  std::shared_ptr<const Graph> graph = snapshot->owned_graph();
  if (graph == nullptr) {
    return Status::InvalidArgument(
        "SwapGraphAndSnapshot needs a graph-owning snapshot; build it with "
        "the shared_ptr<const Graph> FromModel overload");
  }
  // Regenerate the resident sketch against the NEW graph before anything
  // is published — a batch can never pair the new model with the old
  // topology (or an old sketch).
  PRIVIM_ASSIGN_OR_RETURN(std::shared_ptr<const RrSketch> sketch,
                          BuildSketch(*graph));
  auto next = std::make_shared<ServingState>();
  next->graph = std::move(graph);
  next->snapshot = std::move(snapshot);
  next->sketch = std::move(sketch);
  Publish(std::move(next));
  if (m_ != nullptr) {
    m_->snapshot_swaps->Add(1);
    m_->graph_swaps->Add(1);
  }
  return Status::OK();
}

std::shared_ptr<const Server::ServingState> Server::CurrentState() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

void Server::Publish(std::shared_ptr<const ServingState> next) {
  std::lock_guard<std::mutex> lock(state_mu_);
  state_ = std::move(next);
}

std::shared_ptr<const ModelSnapshot> Server::CurrentSnapshot() const {
  return CurrentState()->snapshot;
}

std::shared_ptr<const Graph> Server::CurrentGraph() const {
  return CurrentState()->graph;
}

std::shared_ptr<const RrSketch> Server::CurrentSketch() const {
  return CurrentState()->sketch;
}

Status Server::Start() {
  if (stopped_) {
    return Status::FailedPrecondition(
        "server already stopped; build a new Server to serve again");
  }
  if (started_) return Status::OK();
  started_ = true;
  pool_ = std::make_unique<ThreadPool>(num_threads_);
  // One long-lived pump task per worker. Pumps block on the request
  // queue's condition variable (an external producer), never on another
  // pool task, so the pool's FIFO contract is respected.
  for (size_t slot = 0; slot < num_threads_; ++slot) {
    pool_->Submit([this, slot] { WorkerLoop(slot); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Order matters: closing the queue wakes the pumps, which drain every
  // admitted ticket and then exit; only then can the pool join. Closing
  // after joining would deadlock, discarding tickets would break the
  // every-admitted-query-is-answered contract.
  queue_.Close();
  if (started_) {
    pool_.reset();  // Joins the workers.
    started_ = false;
  } else {
    // Never started: answer whatever was admitted on this thread so no
    // submitter blocks forever.
    WorkerLoop(0);
  }
  FlushWorkspaceStats();
}

Status Server::Query(const QueryRequest& request, QueryResponse& response) {
  QueryCompletion completion;
  PRIVIM_RETURN_NOT_OK(SubmitAsync(&request, &response, &completion));
  return completion.Wait();
}

Status Server::SubmitAsync(const QueryRequest* request,
                           QueryResponse* response,
                           QueryCompletion* completion) {
  PRIVIM_CHECK(request != nullptr && response != nullptr &&
               completion != nullptr);
  QueryTicket ticket;
  ticket.request = request;
  ticket.response = response;
  ticket.completion = completion;
  ticket.enqueue_time = std::chrono::steady_clock::now();
  const Status admitted = queue_.Push(ticket);
  if (m_ != nullptr) {
    if (admitted.ok()) {
      m_->accepted->Add(1);
      m_->queue_depth->Set(static_cast<double>(queue_.size()));
    } else if (admitted.code() == StatusCode::kResourceExhausted) {
      m_->rejected->Add(1);
    }
  }
  return admitted;
}

void Server::WorkerLoop(size_t slot) {
  QueryEngine& engine = *engines_[slot];
  std::vector<QueryTicket> batch;
  batch.reserve(std::max<size_t>(config_.max_batch, 1));
  const size_t max_batch = std::max<size_t>(config_.max_batch, 1);
  while (true) {
    batch.clear();
    const size_t n = queue_.PopBatch(batch, max_batch);
    if (n == 0) break;  // Closed and drained.
    // One state reference per batch: every query in the batch answers
    // from the same (graph, model, sketch) triple, and a concurrent swap
    // only affects later batches.
    const std::shared_ptr<const ServingState> state = CurrentState();
    if (m_ != nullptr) {
      m_->batches->Add(1);
      m_->batch_size->Observe(static_cast<double>(n));
      m_->queue_depth->Set(static_cast<double>(queue_.size()));
    }
    for (const QueryTicket& ticket : batch) {
      Status status = engine.Execute(*state->graph, state->snapshot.get(),
                                     state->sketch.get(), *ticket.request,
                                     *ticket.response);
      if (m_ != nullptr) {
        (status.ok() ? m_->completed : m_->failed)->Add(1);
        Histogram* lat = m_->LatencyFor(ticket.request->type);
        if (lat != nullptr) {
          const std::chrono::duration<double> elapsed =
              std::chrono::steady_clock::now() - ticket.enqueue_time;
          lat->Observe(elapsed.count());
        }
      }
      ticket.completion->Signal(std::move(status));
    }
  }
}

void Server::FlushWorkspaceStats() {
  if (config_.metrics == nullptr) return;
  WorkspacePool::Stats total;
  for (const std::unique_ptr<QueryEngine>& engine : engines_) {
    const WorkspacePool::Stats s = engine->TakeWorkspaceStats();
    total.map_fast_resets += s.map_fast_resets;
    total.map_full_resets += s.map_full_resets;
    total.map_writes += s.map_writes;
    total.ball_cache_hits += s.ball_cache_hits;
    total.ball_cache_misses += s.ball_cache_misses;
  }
  MetricsRegistry& reg = *config_.metrics;
  reg.GetCounter("serve.ws.map_fast_resets")->Add(total.map_fast_resets);
  reg.GetCounter("serve.ws.map_full_resets")->Add(total.map_full_resets);
  reg.GetCounter("serve.ws.touched_nodes")->Add(total.map_writes);
  reg.GetCounter("serve.ws.ball_cache_hits")->Add(total.ball_cache_hits);
  reg.GetCounter("serve.ws.ball_cache_misses")
      ->Add(total.ball_cache_misses);
}

}  // namespace privim
