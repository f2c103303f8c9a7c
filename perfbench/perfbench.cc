// The PrivIM benchmark program: builds one workload's inputs from a seed,
// runs its timed phases through the public entry points (Pipeline,
// MethodExecution, Server/QueryEngine, ModelSnapshot, StreamPipeline,
// MakeSyntheticBatch), checks every output, and writes the raw samples
// as JSON for perfbench/run.py, which turns them into metrics.
//
//   perfbench --workload paper-sweep --seed 1 --seconds 30 --trace 0
//             --out result.json [--trace-out trace.json]
//
// Each workload has a primary phase (what the workload is for) and a
// companion phase that supplies the end-to-end metrics the primary phase
// cannot produce (every workload reports every metric); perfbench/
// design.json says which metric comes from which phase.
//
// Operations are timed by the process CPU clock, which counts the work
// of every thread of the program and, on a virtual machine, leaves out
// the time the hypervisor gave the CPU to someone else (the kernel's
// paravirtual steal accounting). Wall-clock latencies on a shared host
// move with the neighbours' load; CPU time moves with the program. The
// traced run keeps wall-clock spans for the per-layer breakdown.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/method_execution.h"
#include "core/privim.h"
#include "graph/datasets.h"
#include "graph/update_stream.h"
#include "im/seed_selection.h"
#include "obs/telemetry.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "shard/pipeline.h"
#include "stream/stream_pipeline.h"
#include "tensor/kernels.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using privim::DatasetId;
using privim::Graph;
using privim::Method;
using privim::NodeId;
using privim::QueryRequest;
using privim::QueryResponse;
using privim::QueryType;
using privim::Result;
using privim::Rng;
using privim::SpreadEstimator;
using privim::Status;

// ---------------------------------------------------------------------------
// Options, clocks, output and checks.

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
  size_t threads = 1;  // nproc: pipelines, stream and server workers.
};

/// The dataset stand-ins are fixed inputs, as the paper's datasets are:
/// they are synthesized from this seed whatever the workload seed, which
/// drives everything else (the mechanism's randomness, request pools,
/// update streams, the serving model's initialization).
constexpr uint64_t kDatasetSeed = 20250417;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).ValueOrDie();
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// Counts operations and the failed ones. An operation fails when any of
/// its output checks fails; the first messages are kept for the report.
class Checks {
 public:
  void Op(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (messages_.size() < 20) messages_.push_back(what);
    }
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::mutex mu_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> messages_;
};

std::string JsonArray(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ", ";
    s += privim::JsonNumber(v[i]);
  }
  return s + "]";
}

/// The process's resident-set high-water mark (Linux reports KiB).
double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Wall clock, seconds: how long a phase runs.
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds used so far by every thread of this process (see the
/// header: steal time is not counted).
double Cpu() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU seconds used so far by the calling thread.
double ThreadCpu() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

template <typename... Ts>
std::string StrCat(const Ts&... parts) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << parts);
  return os.str();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// Pipeline runs.

/// One grid cell. Its Pipeline is built for each run, with a fresh
/// pipeline seed: a run's cost depends on the mechanism's random draws,
/// so every run adds a draw to the average instead of repeating one.
struct RunCase {
  std::string label;
  const privim::DatasetInstance* instance = nullptr;
  Method method = Method::kPrivImStar;
  double epsilon = 0.0;
  size_t shards = 0;
  size_t threads = 1;
  bool telemetry = false;
  bool is_private() const { return method != Method::kNonPrivate; }
};

/// Every pipeline run of a workload.
struct RunLoopOut {
  std::vector<double> cpu_ms;
  std::vector<size_t> case_index;  // The case each run executed.
  std::vector<double> coverage_pct;
  /// Seeds of each case from the first pass, for the repeated-run and
  /// traced-vs-untraced comparisons.
  std::vector<std::vector<NodeId>> seeds;
};

constexpr size_t kSeedCount = 50;  // k.

privim::PrivImConfig PaperConfig(Method method, double epsilon,
                                 size_t train_nodes, size_t threads) {
  privim::PrivImConfig cfg =
      privim::MakeDefaultConfig(method, epsilon, train_nodes);
  cfg.seed_count = kSeedCount;
  cfg.eval_steps = 1;
  cfg.eval_diffusion = privim::PrivImConfig::EvalDiffusion::kExactIc;
  cfg.runtime.num_threads = threads;
  return cfg;
}

/// Builds case `c`'s Pipeline on pipeline seed `seed` (not timed).
privim::Pipeline BuildPipeline(const RunCase& c, uint64_t seed, Tracer& tracer) {
  privim::PipelineConfig pc;
  pc.method = PaperConfig(c.method, c.epsilon,
                          c.instance->train_graph.num_nodes(), c.threads);
  pc.shard.num_shards = c.shards;
  pc.seed = seed;
  pc.collect_telemetry = c.telemetry;
  ScopedSpan span(tracer, "shard.pipeline_build", "shard");
  return Must(privim::Pipeline::Build(Graph(c.instance->train_graph),
                                      Graph(c.instance->eval_graph),
                                      std::move(pc)),
              "Pipeline::Build " + c.label);
}

bool ValidSeeds(const std::vector<NodeId>& seeds, size_t k, size_t n) {
  if (seeds.size() != k) return false;
  if (k == 0) return true;
  std::set<NodeId> distinct(seeds.begin(), seeds.end());
  return distinct.size() == k && *distinct.rbegin() < n;
}

/// Telemetry of one run as span args (the per-layer counters the traced
/// run reads).
void TelemetryArgs(const privim::RunTelemetry& t, Args& args) {
  const privim::MetricsSnapshot m = t.metrics.Snapshot();
  auto timer_ms = [&](const char* name) {
    auto it = m.timers.find(name);
    return it == m.timers.end() ? 0.0 : it->second.nanos * 1e-6;
  };
  auto timer_calls = [&](const char* name) -> int64_t {
    auto it = m.timers.find(name);
    return it == m.timers.end() ? 0 : static_cast<int64_t>(it->second.calls);
  };
  auto counter = [&](const char* name) -> int64_t {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : static_cast<int64_t>(it->second);
  };
  double clip_sum = 0.0;
  for (const privim::TrainIterationRecord& r : t.train) clip_sum += r.clip_fraction;
  args.Num("train_busy_ms", timer_ms("train.iteration"))
      .Int("train_iterations", timer_calls("train.iteration"))
      .Num("clip_fraction_sum", clip_sum)
      .Int("clip_fraction_count", static_cast<int64_t>(t.train.size()))
      .Num("oracle_ms", timer_ms("im.oracle_eval"))
      .Int("oracle_calls", counter("im.oracle_calls"))
      .Num("parallel_for_ms", timer_ms("runtime.parallel_for"))
      .Int("tasks_executed", counter("runtime.tasks_executed"))
      .Int("walks_accepted", counter("sampler.freq.walks_accepted") +
                                 counter("sampler.rwr.walks_accepted"))
      .Int("walks_rejected", counter("sampler.freq.walks_rejected") +
                                 counter("sampler.rwr.walks_rejected"))
      .Int("dead_end_restarts", counter("sampler.freq.dead_end_restarts") +
                                    counter("sampler.rwr.dead_end_restarts"))
      .Num("shard_extract_ms", timer_ms("shard.extract"))
      .Num("shard_finish_ms", timer_ms("shard.finish"));
}

/// Executes one case and returns its CPU time in `cpu_ms`. Untraced runs
/// go through Pipeline::Run; traced serial runs go through the staged
/// MethodExecution on the pipeline's own graphs and RNG stream (the same
/// statements Pipeline::Run executes), so the sampling stage gets its own
/// span.
privim::PipelineRunResult ExecuteCase(const RunCase& c,
                                      privim::Pipeline& pipeline,
                                      Tracer& tracer, double& cpu_ms) {
  const double c0 = Cpu();
  privim::PipelineRunResult out;
  const privim::PipelineConfig& pc = pipeline.config();
  if (!tracer.enabled()) {
    out = Must(pipeline.Run(), "Pipeline::Run " + c.label);
  } else if (pc.shard.num_shards == 0) {
    ScopedSpan run(tracer, "core.run", "core");
    run.args().Str("case", c.label);
    privim::RunTelemetry telemetry;
    Rng rng = Rng::FromStreamKey(pc.seed, 0);
    std::unique_ptr<privim::MethodExecution> exec;
    {
      ScopedSpan s(tracer, "core.create", "core");
      exec = Must(privim::MethodExecution::Create(
                      pipeline.train_graph(), pipeline.eval_graph(),
                      pc.method, rng, &telemetry),
                  "MethodExecution::Create " + c.label);
    }
    {
      ScopedSpan s(tracer, "sampling.extract", "sampling");
      Must(exec->Extract(), "MethodExecution::Extract " + c.label);
    }
    std::unique_ptr<privim::GnnModel> model;
    {
      ScopedSpan s(tracer, "core.finish", "core");
      out.run =
          Must(exec->Finish(&model), "MethodExecution::Finish " + c.label);
      TelemetryArgs(telemetry, s.args());
    }
    // The run ends here, as Pipeline::Run does: the snapshot build below
    // is outside cpu_ms, so trace.overhead_pct compares like with like.
    cpu_ms = (Cpu() - c0) * 1e3;
    {
      // Publishing the trained model for serving, timed for the per-layer
      // breakdown (each stream publication builds one the same way).
      ScopedSpan s(tracer, "serve.snapshot_build", "serve");
      Must(privim::ModelSnapshot::FromModel(std::move(model),
                                            pipeline.eval_graph()),
           "ModelSnapshot::FromModel " + c.label);
    }
    out.seeds = out.run.seeds;
    out.spread = out.run.spread;
    out.epsilon_spent = out.run.epsilon_spent;
    return out;
  } else {
    ScopedSpan run(tracer, "shard.run", "shard");
    run.args().Str("case", c.label);
    out = Must(pipeline.Run(), "Pipeline::Run " + c.label);
    const privim::ShardedRunResult& s = out.sharded_run;
    TelemetryArgs(pipeline.Telemetry(), run.args());
    run.args()
        .Num("shard_wall_ms", s.wall_seconds * 1e3)
        .Num("shard_stage_sum_ms", s.stage_seconds * 1e3)
        .Int("cut_arcs", static_cast<int64_t>(s.train_cut_arcs + s.eval_cut_arcs))
        .Int("intra_arcs",
             static_cast<int64_t>(s.train_intra_arcs + s.eval_intra_arcs));
  }
  cpu_ms = (Cpu() - c0) * 1e3;
  return out;
}

/// Checks one run's outputs; returns true when all hold.
bool CheckRun(const RunCase& c, const privim::Pipeline& pipeline,
              const privim::PipelineRunResult& r, Tracer& tracer,
              std::string& why) {
  const Graph& eval = pipeline.eval_graph();
  if (!ValidSeeds(r.seeds, kSeedCount, eval.num_nodes())) {
    why = c.label + ": seeds are not k distinct in-range nodes";
    return false;
  }
  if (c.is_private() && !(r.epsilon_spent <= c.epsilon)) {
    why = c.label + StrCat(": epsilon_spent ", r.epsilon_spent, " > budget");
    return false;
  }
  if (!r.sharded) {
    if (r.run.audited_max_occurrence > r.run.occurrence_bound) {
      why = c.label + ": audited occurrence exceeds the bound";
      return false;
    }
  } else {
    double max_eps = 0.0;
    for (const privim::ShardOutcome& s : r.sharded_run.shards) {
      max_eps = std::max(max_eps, s.run.epsilon_spent);
      if (s.run.audited_max_occurrence > s.run.occurrence_bound) {
        why = c.label + ": a shard's audited occurrence exceeds the bound";
        return false;
      }
    }
    if (max_eps != r.epsilon_spent) {
      why = c.label + ": sharded epsilon is not the max over shards";
      return false;
    }
  }
  ScopedSpan span(tracer, "im.check_spread", "im");
  const double spread = privim::MakeExactUnitOracle(eval, 1)(r.seeds);
  if (spread != r.spread) {
    why = c.label + StrCat(": reported spread ", r.spread,
                           " != recomputed ", spread);
    return false;
  }
  return true;
}

/// Pipeline seed of case `i` in pass `pass` of a workload keyed `key`.
uint64_t RunSeed(uint64_t key, size_t pass, size_t i) {
  return key * 1000003 + (static_cast<uint64_t>(pass) << 20) + i;
}

/// The pass number of warm-up runs' pipeline seeds.
constexpr size_t kWarmUpPass = 1000;

/// Runs one case on `seed` and checks its outputs; returns its seeds.
std::vector<NodeId> RunOnce(const RunCase& c, uint64_t seed, Tracer& tracer,
                            Checks& checks, RunLoopOut* out, size_t index) {
  privim::Pipeline pipeline = BuildPipeline(c, seed, tracer);
  double ms = 0.0;
  privim::PipelineRunResult r = ExecuteCase(c, pipeline, tracer, ms);
  std::string why;
  checks.Op(CheckRun(c, pipeline, r, tracer, why), why);
  if (out != nullptr) {
    out->cpu_ms.push_back(ms);
    out->case_index.push_back(index);
    out->coverage_pct.push_back(100.0 * r.spread / c.instance->celf_spread);
  }
  return r.seeds;
}

/// Closed loop: runs the cases back to back in whole passes, at least
/// one, and another only while the last pass fits in what is left of
/// `seconds`; then repeats the first run, which must give the same seeds.
/// Appends to `out`; returns the median CPU time of the call's runs.
double RunPasses(const std::vector<RunCase>& cases, uint64_t key,
                 double seconds, Tracer& tracer, Checks& checks,
                 RunLoopOut& out) {
  const size_t first = out.cpu_ms.size();
  // Untimed warm-up, one run per dataset: the allocator grows its arenas
  // and adapts its mmap threshold in the first runs, which made a
  // measured first pass read 8-10% slower than the rest.
  std::set<const privim::DatasetInstance*> warmed;
  for (const RunCase& c : cases) {
    if (warmed.insert(c.instance).second) {
      RunOnce(c, RunSeed(key, kWarmUpPass, 0), tracer, checks, nullptr, 0);
    }
  }
  const double start = Now();
  double pass_s = 0.0;
  size_t pass = 0;
  do {
    const double p0 = Now();
    for (size_t i = 0; i < cases.size(); ++i) {
      std::vector<NodeId> seeds =
          RunOnce(cases[i], RunSeed(key, pass, i), tracer, checks, &out, i);
      if (pass == 0) out.seeds.push_back(std::move(seeds));
    }
    pass_s = Now() - p0;
    ++pass;
  } while (Now() - start + pass_s <= seconds);
  checks.Op(RunOnce(cases[0], RunSeed(key, 0, 0), tracer, checks, nullptr,
                    0) == out.seeds[0],
            cases[0].label + ": repeated run changed its seeds");
  return Median(std::vector<double>(out.cpu_ms.begin() + first, out.cpu_ms.end()));
}

// ---------------------------------------------------------------------------
// Serving.

/// A finite pool of request templates.
struct ReadSet {
  std::vector<QueryRequest> templates;
  std::vector<bool> is_topk;
  std::vector<std::string> cls;  // "topk", "exact", "mc", "sketch".
  std::vector<size_t> topk_ids, analytics_ids;
  /// The request mix: every 10th request a top-k, the templates of each
  /// kind in turn, so every template is sent equally often and the mix
  /// of costs is the same for every seed.
  size_t Next(uint64_t& i) const {
    const uint64_t n = i++;
    return n % 10 == 0 ? topk_ids[(n / 10) % topk_ids.size()]
                       : analytics_ids[(n - n / 10 - 1) % analytics_ids.size()];
  }
};

std::vector<NodeId> RandomNodes(size_t n, size_t count, Rng& rng) {
  std::set<NodeId> s;
  while (s.size() < std::min(count, n)) {
    s.insert(static_cast<NodeId>(rng.UniformInt(n)));
  }
  return std::vector<NodeId>(s.begin(), s.end());
}

/// Request pool size: the seed picks the nodes and Monte-Carlo seeds of
/// each template, never the mix of request shapes.
constexpr size_t kTopkTemplates = 48;
constexpr size_t kAnalyticsTemplates = 960;

/// Builds the request mix over an n-node graph: top-k templates (k
/// cycling 10/25/50, every other one restricted to a candidate list) and
/// spread / marginal-gain templates of k-node seed sets (the size the
/// workloads select) cycling the exact, Monte-Carlo and sketch
/// estimators.
ReadSet MakeReadSet(size_t n, Rng& rng) {
  ReadSet rs;
  static const size_t kK[] = {10, 25, 50};
  for (size_t i = 0; i < kTopkTemplates; ++i) {
    QueryRequest q;
    q.type = QueryType::kTopK;
    q.k = kK[i % 3];
    if (i % 2 == 1) q.candidates = RandomNodes(n, std::min<size_t>(n / 4, 2000), rng);
    q.estimator = SpreadEstimator::kExact;
    q.max_steps = 1;
    rs.topk_ids.push_back(rs.templates.size());
    rs.templates.push_back(std::move(q));
    rs.is_topk.push_back(true);
    rs.cls.push_back("topk");
  }
  static const SpreadEstimator kEst[] = {SpreadEstimator::kExact,
                                         SpreadEstimator::kMonteCarloIc,
                                         SpreadEstimator::kRrSketch};
  static const char* kCls[] = {"exact", "mc", "sketch"};
  for (size_t i = 0; i < kAnalyticsTemplates; ++i) {
    QueryRequest q;
    q.type = (i / 3) % 2 == 0 ? QueryType::kSpread : QueryType::kMarginalGain;
    q.estimator = kEst[i % 3];
    q.seeds = RandomNodes(n, kSeedCount, rng);
    if (q.type == QueryType::kMarginalGain) q.candidates = RandomNodes(n, 8, rng);
    q.trials = 64;
    q.max_steps = 1;
    q.seed = rng.NextUint64();
    rs.analytics_ids.push_back(rs.templates.size());
    rs.templates.push_back(std::move(q));
    rs.is_topk.push_back(false);
    rs.cls.push_back(kCls[i % 3]);
  }
  return rs;
}

bool SameResponse(const QueryResponse& a, const QueryResponse& b) {
  return a.type == b.type && a.snapshot_id == b.snapshot_id &&
         a.seeds == b.seeds && a.values == b.values && a.spread == b.spread;
}

/// Per-request CPU times of the engine reads, by kind, and the CPU time
/// of the saturated server's bursts.
struct ReadOut {
  std::vector<double> topk_ms, analytics_ms;
  double burst_cpu_s = 0.0;
  size_t burst_requests = 0;
};

/// The state a server worker answers from: the server's current graph,
/// snapshot and sketch.
struct ServedState {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const privim::ModelSnapshot> snapshot;
  std::shared_ptr<const privim::RrSketch> sketch;
  explicit ServedState(const privim::Server& server)
      : graph(server.CurrentGraph()),
        snapshot(server.CurrentSnapshot()),
        sketch(server.CurrentSketch()) {}
  Status Execute(privim::QueryEngine& engine, const QueryRequest& q,
                 QueryResponse& r) const {
    return engine.Execute(*graph, snapshot.get(), sketch.get(), q, r);
  }
};

/// Reads of one publication: the next `count` requests of the mix.
///  1. Each is executed by `engine` (one thread, the same engine the
///     whole run) on the state the server answers from, timed by this
///     thread's CPU clock. Timed through Server::Query instead, a
///     request's CPU time would also hold a worker's wake-up on a CPU the
///     host may have lent out meanwhile, which moved top-k and analytics
///     times by 15-20% between runs.
///  2. The server answers each (Server::Query, untimed); the engine's
///     answer must equal it.
///  3. The same requests, `kBurstRepeats` times over, go to the server
///     with 2 x nproc in flight (all workers busy, batches form), timed
///     together by the process CPU clock; every answer must equal the
///     server's answer from step 2.
constexpr size_t kBurstRepeats = 4;

void RunReads(privim::Server& server, const ReadSet& rs, size_t count,
              size_t threads, uint64_t& cursor, privim::QueryEngine& engine,
              Tracer& tracer, Checks& checks, ReadOut& out) {
  const ServedState state(server);
  std::vector<size_t> slice(count);
  std::vector<QueryResponse> answers(count);
  for (size_t j = 0; j < count; ++j) {
    const uint64_t request_id = cursor;
    const size_t t = slice[j] = rs.Next(cursor);
    const int64_t w0 = tracer.NowNs();
    const double c0 = ThreadCpu();
    const Status s = state.Execute(engine, rs.templates[t], answers[j]);
    const double ms = (ThreadCpu() - c0) * 1e3;
    const int64_t w1 = tracer.NowNs();
    Must(s, "QueryEngine::Execute");
    (rs.is_topk[t] ? out.topk_ms : out.analytics_ms).push_back(ms);
    if (tracer.enabled()) {
      tracer.Record("serve.read", "serve", w0, w1, tracer.Current(),
                    static_cast<int64_t>(request_id),
                    Args().Str("class", rs.cls[t])
                        .Int("template", static_cast<int64_t>(t))
                        .Num("cpu_ms", ms));
    }
  }
  std::vector<QueryResponse> refs(count);
  {
    ScopedSpan span(tracer, "serve.query", "serve");
    for (size_t j = 0; j < count; ++j) {
      const Status s = server.Query(rs.templates[slice[j]], refs[j]);
      checks.Op(s.ok() && SameResponse(answers[j], refs[j]),
                StrCat("engine answer to template ", slice[j],
                       " differs from the server's (", s.ToString(), ")"));
    }
  }
  struct Slot {
    size_t j = 0;
    QueryResponse response;
    privim::QueryCompletion done;
  };
  // Slot i % window holds request i; request i + window reuses it once
  // its answer is in, so the oldest request is awaited first.
  const size_t window = 2 * threads;
  std::vector<std::unique_ptr<Slot>> ring(window);
  auto finish = [&](Slot& slot) {
    const Status s = slot.done.Wait();
    checks.Op(s.ok() && SameResponse(slot.response, refs[slot.j]),
              StrCat("loaded server's answer to template ", slice[slot.j],
                     " differs from its answer (", s.ToString(), ")"));
  };
  ScopedSpan span(tracer, "serve.burst", "serve");
  const size_t total = count * kBurstRepeats;
  const double c0 = Cpu();
  for (size_t i = 0; i < total; ++i) {
    std::unique_ptr<Slot>& slot = ring[i % window];
    if (slot) finish(*slot);
    slot = std::make_unique<Slot>();
    slot->j = i % count;
    Must(server.SubmitAsync(&rs.templates[slice[slot->j]], &slot->response,
                            &slot->done),
         "Server::SubmitAsync");
  }
  for (size_t i = total > window ? total - window : 0; i < total; ++i) {
    finish(*ring[i % window]);
  }
  out.burst_cpu_s += Cpu() - c0;
  out.burst_requests += total;
}

/// Times every template once on a private warm engine (one thread), for
/// the engine-time and queue-wait breakdown of the traced run.
void TraceEngineTimes(const ReadSet& rs, const privim::Server& server,
                      Tracer& tracer) {
  if (!tracer.enabled()) return;
  privim::QueryEngine engine;  // Its own, so every template starts warm.
  const ServedState state(server);
  QueryResponse response;
  for (const QueryRequest& q : rs.templates) {
    Must(state.Execute(engine, q, response), "QueryEngine::Execute");
  }
  for (size_t i = 0; i < rs.templates.size(); ++i) {
    ScopedSpan span(tracer, "serve.engine", "serve");
    span.args().Str("class", rs.cls[i]).Int("template", static_cast<int64_t>(i));
    const double c0 = ThreadCpu();
    Must(state.Execute(engine, rs.templates[i], response),
         "QueryEngine::Execute");
    span.args().Num("engine_ms", (ThreadCpu() - c0) * 1e3);
  }
}

std::string ServeStatsJson(const privim::MetricsRegistry& metrics) {
  const privim::MetricsSnapshot m = metrics.Snapshot();
  auto counter = [&](const char* name) -> uint64_t {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
  };
  // "<name>_sum", "<name>_count" of a histogram.
  auto hist = [&](const char* name, const char* key) {
    double sum = 0.0, count = 0.0;
    auto h = m.histograms.find(name);
    if (h != m.histograms.end()) {
      sum = h->second.sum;
      count = static_cast<double>(h->second.total);
    }
    return StrCat(", \"", key, "_sum\": ", privim::JsonNumber(sum), ", \"",
                  key, "_count\": ", privim::JsonNumber(count));
  };
  return StrCat("{\"completed\": ", counter("serve.requests.completed"),
                ", \"rejected\": ", counter("serve.requests.rejected"),
                ", \"touched_nodes\": ", counter("serve.ws.touched_nodes"),
                hist("serve.batch_size", "batch"),
                hist("serve.latency.topk", "latency_topk_s"),
                hist("serve.latency.spread", "latency_spread_s"),
                hist("serve.latency.marginal", "latency_marginal_s"), "}");
}

// ---------------------------------------------------------------------------
// Streaming.

/// Every 4th batch retrains (staleness trigger; the drift trigger is
/// off), so a phase holds enough of both kinds for a median of each.
constexpr size_t kStaleness = 4;

/// A stream pipeline published to a server: the system stream-update
/// measures and the companion phase of the other workloads.
struct StreamSystem {
  std::unique_ptr<Graph> initial;  // Borrowed by the server until a swap.
  std::unique_ptr<privim::StreamPipeline> stream;
  std::unique_ptr<privim::MetricsRegistry> metrics;
  std::unique_ptr<privim::Server> server;
  ReadSet reads;
  uint64_t stream_seed = 0;
  privim::StreamGenConfig gen;
  uint64_t next_batch = 0;
  uint64_t cursor = 0;  // Position in the request mix.
  privim::QueryEngine engine;  // The benchmark's own, for timed reads.
};

std::unique_ptr<StreamSystem> BuildStreamSystem(Graph graph, uint64_t seed,
                                                size_t threads,
                                                Tracer& tracer) {
  auto sys = std::make_unique<StreamSystem>();
  privim::StreamOptions so;
  so.method = PaperConfig(Method::kPrivImStar, 2.0, graph.num_nodes(), threads);
  so.retrain.drift_fraction = 0.0;
  so.retrain.staleness_batches = kStaleness;
  so.gen.events_per_batch = 64;
  so.rr_sketch_sets = 256;
  so.utility_steps = 1;
  so.seed = seed;
  so.num_threads = threads;
  sys->gen = so.gen;
  sys->stream_seed = seed ^ 0x5eedULL;
  Must(graph.EnsureInCsr(), "EnsureInCsr");
  sys->initial = std::make_unique<Graph>(graph);
  {
    ScopedSpan span(tracer, "stream.build", "stream");
    sys->stream = Must(privim::StreamPipeline::Build(std::move(graph), so),
                       "StreamPipeline::Build");
  }
  sys->metrics = std::make_unique<privim::MetricsRegistry>();
  privim::ServeConfig sc;
  sc.num_threads = threads;
  sc.rr_sketch_sets = 256;
  sc.rr_sketch_seed = seed;
  sc.metrics = sys->metrics.get();
  {
    ScopedSpan span(tracer, "serve.server_build", "serve");
    sys->server = std::make_unique<privim::Server>(*sys->initial, sc);
  }
  std::shared_ptr<const privim::ModelSnapshot> snap;
  {
    ScopedSpan span(tracer, "stream.snapshot", "stream");
    snap = Must(sys->stream->MakeServingSnapshot(), "MakeServingSnapshot");
  }
  {
    ScopedSpan span(tracer, "serve.swap", "serve");
    Must(sys->server->SwapGraphAndSnapshot(snap), "SwapGraphAndSnapshot");
  }
  Must(sys->server->Start(), "Server::Start");
  Rng rng = Rng::FromStreamKey(seed, 7);
  sys->reads = MakeReadSet(sys->initial->num_nodes(), rng);
  return sys;
}

struct UpdateOut {
  std::vector<double> plain_ms, retrain_ms;  // CPU per batch, by kind.
};

/// Reads after each publication: about five top-k, so the first top-k
/// on a freshly retrained model is not near the p90 reported.
constexpr size_t kReadsAfterPublish = 48;

/// A closed loop of update batches for `seconds` (at least one batch;
/// `batches` > 0 runs exactly that many instead). Each is made by
/// MakeSyntheticBatch (untimed), applied with ApplyBatch and published
/// with MakeServingSnapshot + SwapGraphAndSnapshot, timed together by the
/// process CPU clock; then RunReads reads the publication. Returns the
/// median CPU time per batch.
double RunUpdates(StreamSystem& sys, double seconds, size_t batches,
                  size_t threads, Tracer& tracer, Checks& checks,
                  UpdateOut& out, ReadOut& reads) {
  std::vector<double> all;
  const double end = Now() + seconds;
  for (size_t i = 0; batches ? i < batches : i == 0 || Now() < end; ++i) {
    const uint64_t b = sys.next_batch++;
    const privim::UpdateBatch batch = privim::MakeSyntheticBatch(
        sys.stream->View(), b, sys.stream_seed, sys.gen);
    const double prev_eps = sys.stream->CumulativeEpsilon();
    const uint64_t update_id = tracer.enabled() ? tracer.NewId() : 0;
    const int64_t a0 = tracer.NowNs();
    const double c0 = Cpu();
    Result<privim::StreamStepRecord> rec = sys.stream->ApplyBatch(batch);
    const int64_t a1 = tracer.NowNs();
    Result<std::shared_ptr<const privim::ModelSnapshot>> snap =
        rec.ok() ? sys.stream->MakeServingSnapshot()
                 : Result<std::shared_ptr<const privim::ModelSnapshot>>(
                       rec.status());
    const int64_t a2 = tracer.NowNs();
    const Status swapped =
        snap.ok() ? sys.server->SwapGraphAndSnapshot(*snap) : snap.status();
    const double ms = (Cpu() - c0) * 1e3;
    const int64_t a3 = tracer.NowNs();
    bool ok = swapped.ok();
    std::string why = swapped.ToString();
    if (ok && rec->cumulative_epsilon < prev_eps) {
      ok = false;
      why = "cumulative epsilon decreased";
    }
    checks.Op(ok, "stream batch " + std::to_string(b) + ": " + why);
    if (!ok) continue;
    const privim::StreamStepRecord& r = *rec;
    (r.retrained ? out.retrain_ms : out.plain_ms).push_back(ms);
    all.push_back(ms);
    if (tracer.enabled()) {
      const int64_t req = static_cast<int64_t>(b);
      tracer.Record("stream.apply", "stream", a0, a1, update_id, req,
                    Args()
                        .Int("retrained", r.retrained)
                        .Int("repaired_sets", static_cast<int64_t>(r.repaired_sets))
                        .Int("sketch_sets",
                             static_cast<int64_t>(sys.stream->sketch().num_sets()))
                        .Int("changed_in_rows",
                             static_cast<int64_t>(r.changed_in_rows)));
      tracer.Record("stream.snapshot", "stream", a1, a2, update_id, req, Args());
      tracer.Record("serve.swap", "serve", a2, a3, update_id, req, Args());
      tracer.Record("stream.update", "stream", a0, a3, tracer.Current(), req,
                    Args().Num("cpu_ms", ms), update_id);
    }
    RunReads(*sys.server, sys.reads, kReadsAfterPublish, threads, sys.cursor,
             sys.engine, tracer, checks, reads);
  }
  return Median(all);
}

// ---------------------------------------------------------------------------
// Workloads.

/// Everything one run reports to run.py.
struct Report {
  std::vector<double> setup_s;  // CPU seconds of each setup.
  RunLoopOut runs;
  ReadOut reads;
  UpdateOut updates;
  /// Median primary-operation CPU time of the first primary pass,
  /// untraced and traced (trace mode only), for trace.overhead_pct.
  double untraced_op_ms = 0.0, traced_op_ms = 0.0;
  std::string extra;  // Per-layer facts outside the trace, JSON members.
};

/// The LastFM stand-in's pipeline runs: passes of this many runs of one
/// case (PrivIM*, eps 2), each on a fresh pipeline seed.
constexpr uint64_t kStreamRunsPerPass = 16;

/// Batches of stream-update's first pass (the traced-run comparison).
constexpr size_t kFirstPassBatches = 8;

/// The LastFM stand-in as a stream system and, optionally, as pipeline
/// cases.
struct Companion {
  std::unique_ptr<privim::DatasetInstance> instance;
  std::vector<RunCase> cases;
  std::unique_ptr<StreamSystem> stream;
};

Companion BuildCompanion(uint64_t seed, size_t threads, bool runs,
                         Tracer& tracer) {
  Companion c;
  {
    ScopedSpan span(tracer, "graph.prepare", "graph");
    c.instance = std::make_unique<privim::DatasetInstance>(
        Must(privim::PrepareDataset(DatasetId::kLastFm, kDatasetSeed),
             "PrepareDataset LastFM"));
  }
  for (uint64_t i = 0; runs && i < kStreamRunsPerPass; ++i) {
    c.cases.push_back({"LastFM/PrivIM*/eps2/run" + std::to_string(i),
                       c.instance.get(), Method::kPrivImStar, 2.0, 0, threads,
                       false});
  }
  c.stream = BuildStreamSystem(Graph(c.instance->full), seed, threads, tracer);
  return c;
}

/// The stream system's updates, each publication read, for `seconds`
/// (or exactly `batches`); returns the median CPU time per batch.
double StreamPhase(StreamSystem& sys, double seconds, size_t batches,
                   size_t threads, Tracer& tracer, Checks& checks,
                   Report& report) {
  TraceEngineTimes(sys.reads, *sys.server, tracer);
  return RunUpdates(sys, seconds, batches, threads, tracer, checks,
                    report.updates, report.reads);
}

constexpr int kSetupRepeats = 5;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input of the run (timed as setup_s).
  virtual void Setup(Tracer& tracer) = 0;
  /// The primary phase for `seconds`; returns the median CPU time of its
  /// operations (ms). `first_only` runs just its first pass.
  virtual double Primary(double seconds, bool first_only, Tracer& tracer,
                         Checks& checks, Report& report) = 0;
  /// The companion phase for `seconds`.
  virtual void Companion(double seconds, Tracer& tracer, Checks& checks,
                         Report& report) = 0;
  /// After the last phase: stops the server, keeps its statistics.
  virtual void Finish(Report& report) = 0;
  /// Output digest of the primary phase's first pass, compared between
  /// the untraced and traced passes of a trace run.
  virtual std::vector<std::vector<NodeId>> Digest() const = 0;
};

/// Shares of --seconds: primary, then the companion's parts.
constexpr double kPrimaryShare = 0.55;

/// paper-sweep and sharded-large: a closed loop of pipeline runs, then
/// the companion's updates, reads and saturated server on LastFM.
class RunWorkload : public Workload {
 public:
  RunWorkload(const Options& opt, bool sharded)
      : opt_(opt), sharded_(sharded) {}

  void Setup(Tracer& tracer) override {
    if (!sharded_) {
      for (const privim::DatasetSpec& spec : privim::MainDatasetSpecs()) {
        ScopedSpan span(tracer, "graph.prepare", "graph");
        instances_.push_back(std::make_unique<privim::DatasetInstance>(
            Must(privim::PrepareDataset(spec.id,
                                        kDatasetSeed + instances_.size()),
                 "PrepareDataset " + spec.name)));
      }
      static const Method kMethods[] = {Method::kPrivImStar, Method::kPrivIm,
                                        Method::kHpGrat, Method::kEgn};
      for (const auto& inst : instances_) {
        for (Method m : kMethods) {
          for (double eps : {1.0, 4.0}) {
            cases_.push_back({inst->spec.name + "/" + privim::MethodName(m) +
                                  "/eps" + std::to_string(static_cast<int>(eps)),
                              inst.get(), m, eps, 0, opt_.threads, false});
          }
        }
        cases_.push_back({inst->spec.name + "/Non-Private", inst.get(),
                          Method::kNonPrivate, 1.0, 0, opt_.threads, false});
      }
    } else {
      {
        ScopedSpan span(tracer, "graph.prepare", "graph");
        instances_.push_back(std::make_unique<privim::DatasetInstance>(
            Must(privim::PrepareDataset(DatasetId::kGowalla, kDatasetSeed,
                                        50, 1, 10.0),
                 "PrepareDataset Gowalla x10")));
      }
      // Passes of kShardedRunsPerPass runs of the one case.
      for (uint64_t i = 0; i < kShardedRunsPerPass; ++i) {
        cases_.push_back({"Gowalla-x10/PrivIM*/eps2/4-shards/run" +
                              std::to_string(i),
                          instances_[0].get(), Method::kPrivImStar, 2.0, 4,
                          opt_.threads, tracer.enabled()});
      }
    }
    companion_ = BuildCompanion(opt_.seed, opt_.threads, false, tracer);
  }

  double Primary(double seconds, bool first_only, Tracer& tracer,
                 Checks& checks, Report& report) override {
    const double median =
        RunPasses(cases_, opt_.seed, first_only ? 0.0 : seconds, tracer,
                  checks, report.runs);
    digest_ = report.runs.seeds;
    return median;
  }

  void Companion(double seconds, Tracer& tracer, Checks& checks,
                 Report& report) override {
    StreamPhase(*companion_.stream, seconds, 0, opt_.threads, tracer, checks,
                report);
  }

  void Finish(Report& report) override {
    StreamSystem& sys = *companion_.stream;
    sys.server->Stop();
    report.extra = "\"serve_stats\": " + ServeStatsJson(*sys.metrics);
  }

  std::vector<std::vector<NodeId>> Digest() const override { return digest_; }

  static constexpr uint64_t kShardedRunsPerPass = 8;

 private:
  const Options& opt_;
  bool sharded_;
  std::vector<std::unique_ptr<privim::DatasetInstance>> instances_;
  std::vector<RunCase> cases_;
  perfbench::Companion companion_;
  std::vector<std::vector<NodeId>> digest_;
};

/// stream-update: update passes, each publication followed by reads
/// checked against that publication; then the saturated server and the
/// LastFM pipeline runs.
class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(const Options& opt) : opt_(opt) {}

  void Setup(Tracer& tracer) override {
    system_ = BuildCompanion(opt_.seed, opt_.threads, true, tracer);
  }

  double Primary(double seconds, bool first_only, Tracer& tracer,
                 Checks& checks, Report& report) override {
    StreamSystem& sys = *system_.stream;
    const double start = Now();
    const double median = StreamPhase(sys, 0.0, kFirstPassBatches,
                                      opt_.threads, tracer, checks, report);
    digest_ = {sys.stream->seeds()};
    if (!first_only) {
      RunUpdates(sys, seconds - (Now() - start), 0, opt_.threads, tracer,
                 checks, report.updates, report.reads);
    }
    return median;
  }

  void Companion(double seconds, Tracer& tracer, Checks& checks,
                 Report& report) override {
    RunPasses(system_.cases, opt_.seed ^ 0xc1ULL, seconds, tracer, checks,
              report.runs);
  }

  void Finish(Report& report) override {
    StreamSystem& sys = *system_.stream;
    sys.server->Stop();
    report.extra = "\"serve_stats\": " + ServeStatsJson(*sys.metrics);
  }

  std::vector<std::vector<NodeId>> Digest() const override { return digest_; }

 private:
  const Options& opt_;
  perfbench::Companion system_;
  std::vector<std::vector<NodeId>> digest_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "paper-sweep") {
    return std::make_unique<RunWorkload>(opt, false);
  }
  if (opt.workload == "sharded-large") {
    return std::make_unique<RunWorkload>(opt, true);
  }
  if (opt.workload == "stream-update") {
    return std::make_unique<StreamWorkload>(opt);
  }
  return nullptr;
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  if (argc % 2 == 0) {
    std::cerr << "perfbench: flags come in --name value pairs\n";
    std::exit(2);
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--out") opt.out = value;
    else if (key == "--trace-out") opt.trace_out = value;
    else {
      std::cerr << "perfbench: unknown flag " << key << "\n";
      std::exit(2);
    }
  }
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  if (opt.out.empty() || opt.seconds <= 0.0 ||
      (opt.trace && opt.trace_out.empty())) {
    std::cerr << "perfbench: need --workload, --seconds > 0, --out "
                 "(and --trace-out with --trace 1)\n";
    std::exit(2);
  }
  return opt;
}

std::string ReportJson(const Options& opt, const Report& r, const Checks& checks) {
  std::vector<double> case_index(r.runs.case_index.begin(),
                                 r.runs.case_index.end());
  std::string failures = "[";
  for (size_t i = 0; i < checks.messages().size(); ++i) {
    failures += (i ? ", " : "") + privim::JsonQuote(checks.messages()[i]);
  }
  failures += "]";
  const char* force = std::getenv("PRIVIM_FORCE_ISA");
  return StrCat(
      "{\"workload\": ", privim::JsonQuote(opt.workload), ", \"seed\": ", opt.seed,
      ", \"trace\": ", opt.trace ? 1 : 0, ", \"threads\": ", opt.threads,
      ", \"isa\": ", privim::JsonQuote(privim::simd::IsaName(privim::simd::MaxSupportedIsa())),
      ", \"resolved_isa\": ", privim::JsonQuote(privim::simd::IsaName(privim::simd::ResolveIsa())),
      ", \"force_isa\": ", force ? privim::JsonQuote(force) : std::string("null"),
      ", \"build_type\": ", privim::JsonQuote(PERFBENCH_BUILD_TYPE),
      ",\n \"setup_s\": ", JsonArray(r.setup_s),
      ", \"peak_rss_mb\": ", privim::JsonNumber(PeakRssMiB()),
      ",\n \"run_ms\": ", JsonArray(r.runs.cpu_ms),
      ",\n \"run_case\": ", JsonArray(case_index),
      ",\n \"coverage_pct\": ", JsonArray(r.runs.coverage_pct),
      ",\n \"topk_ms\": ", JsonArray(r.reads.topk_ms),
      ",\n \"analytics_ms\": ", JsonArray(r.reads.analytics_ms),
      ",\n \"update_ms\": ", JsonArray(r.updates.plain_ms),
      ",\n \"retrain_update_ms\": ", JsonArray(r.updates.retrain_ms),
      ",\n \"burst_cpu_s\": ", privim::JsonNumber(r.reads.burst_cpu_s),
      ", \"burst_requests\": ", r.reads.burst_requests,
      ",\n \"untraced_op_ms\": ", privim::JsonNumber(r.untraced_op_ms),
      ", \"traced_op_ms\": ", privim::JsonNumber(r.traced_op_ms),
      ", \"attempted\": ", checks.attempted(), ", \"failed\": ", checks.failed(),
      ", \"failures\": ", failures,
      ",\n \"extra\": {", r.extra, "}}\n");
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  if (MakeWorkload(opt) == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  Report report;
  Checks checks;
  Tracer off(false);
  std::unique_ptr<Workload> wl;
  const double primary_s = opt.seconds * kPrimaryShare;
  const double companion_s = opt.seconds - primary_s;
  if (!opt.trace) {
    // Set up several times and keep the last, so setup_s is a median.
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      wl.reset();
      const double c0 = Cpu();
      wl = MakeWorkload(opt);
      wl->Setup(off);
      report.setup_s.push_back(Cpu() - c0);
    }
    wl->Primary(primary_s, false, off, checks, report);
    wl->Companion(companion_s, off, checks, report);
    wl->Finish(report);
  } else {
    // The primary phase's first pass untraced first: the base of
    // trace.overhead_pct and of the traced-vs-untraced output comparison.
    std::vector<std::vector<NodeId>> untraced_digest;
    {
      Report scratch;
      wl = MakeWorkload(opt);
      wl->Setup(off);
      report.untraced_op_ms = wl->Primary(0.0, true, off, checks, scratch);
      untraced_digest = wl->Digest();
      wl->Finish(scratch);
      wl.reset();
    }
    Tracer tracer(true);
    {
      ScopedSpan phase(tracer, "phase.setup", "bench");
      const double c0 = Cpu();
      wl = MakeWorkload(opt);
      wl->Setup(tracer);
      report.setup_s.push_back(Cpu() - c0);
    }
    {
      ScopedSpan phase(tracer, "phase.primary", "bench");
      report.traced_op_ms = wl->Primary(0.0, true, tracer, checks, report);
    }
    checks.Op(wl->Digest() == untraced_digest,
              "traced run produced different seeds than the untraced run");
    {
      ScopedSpan phase(tracer, "phase.companion", "bench");
      wl->Companion(companion_s * 0.5, tracer, checks, report);
    }
    wl->Finish(report);
    wl.reset();
    Must(tracer.WriteChromeJson(
             opt.trace_out,
             StrCat("{\"workload\": ", privim::JsonQuote(opt.workload),
                    ", \"seed\": ", opt.seed,
                    report.extra.empty() ? "" : ", ", report.extra, "}")),
         "writing the trace");
  }
  wl.reset();
  std::ofstream out(opt.out);
  out << ReportJson(opt, report, checks);
  out.close();
  if (!out) {
    std::cerr << "perfbench: cannot write " << opt.out << "\n";
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
