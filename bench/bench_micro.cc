// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: sampling, accounting, GNN forward/backward, CELF, and
// the DESIGN.md ablations on oracle choice.

#include <benchmark/benchmark.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/loss.h"
#include "core/plan_cache.h"
#include "core/trainer.h"
#include "dp/rdp_accountant.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "im/diffusion.h"
#include "im/seed_selection.h"
#include "nn/features.h"
#include "nn/gnn.h"
#include "graph/datasets.h"
#include "graph/graph_delta.h"
#include "graph/graph_view.h"
#include "graph/subgraph.h"
#include "graph/update_stream.h"
#include "im/rr_sets.h"
#include "sampling/freq_sampler.h"
#include "sampling/rwr_sampler.h"
#include "shard/shard_runner.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "tensor/kernels.h"

// ---- Counting allocator. Global operator new/delete replacements with
// two independently armed instruments:
//  * an allocation COUNTER (g_count_allocs) — the BM_*SteadyStateAllocs
//    gates arm it around warm plan/serve execution and hard-fail the
//    binary if the count is nonzero, enforcing the
//    zero-steady-state-allocation contracts of tensor/plan.h and
//    serve/query_engine.h in CI (tools/run_checks.sh runs them on every
//    rung);
//  * a BYTE tracker (g_track_bytes) — maintains net live heap bytes (via
//    malloc_usable_size) and their high-water mark, which BM_ScaleSmoke
//    arms around a million-node streaming graph build to enforce the
//    peak <= ~1.2x-of-final-CSR contract of graph/graph.h (docs/scale.md;
//    the same measurement tests/graph/builder_memory_test.cc pins at unit
//    scale). ----

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_track_bytes{false};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void NoteAlloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void NoteAllocBytes(void* p) {
  if (p == nullptr || !g_track_bytes.load(std::memory_order_relaxed)) return;
  const int64_t sz = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live_bytes.fetch_add(sz, std::memory_order_relaxed) + sz;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void NoteFreeBytes(void* p) {
  if (p == nullptr || !g_track_bytes.load(std::memory_order_relaxed)) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  NoteAlloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  NoteAllocBytes(p);
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t align) {
  NoteAlloc();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  NoteAllocBytes(p);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  NoteAlloc();
  void* p = std::malloc(size != 0 ? size : 1);
  NoteAllocBytes(p);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  NoteAlloc();
  void* p = std::malloc(size != 0 ? size : 1);
  NoteAllocBytes(p);
  return p;
}
void operator delete(void* p) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  NoteFreeBytes(p);
  std::free(p);
}

namespace privim {
namespace {

Graph SharedGraph(size_t n) {
  static Rng& rng = *new Rng(42);
  return std::move(BarabasiAlbert(n, 5, rng)).ValueOrDie();
}

void BM_ThetaProjection(benchmark::State& state) {
  Graph g = SharedGraph(static_cast<size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ThetaBoundedProjection(g, 10, rng));
  }
}
BENCHMARK(BM_ThetaProjection)->Arg(1000)->Arg(4000);

void BM_RwrSampling(benchmark::State& state) {
  Graph g = SharedGraph(2000);
  RwrConfig cfg;
  cfg.subgraph_size = 40;
  cfg.sampling_rate = 0.1;
  RwrSampler sampler(cfg);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Extract(g, rng));
  }
}
BENCHMARK(BM_RwrSampling);

void BM_DualStageSampling(benchmark::State& state) {
  Graph g = SharedGraph(2000);
  FreqSamplingConfig cfg;
  cfg.subgraph_size = 40;
  cfg.sampling_rate = 0.1;
  cfg.frequency_threshold = 6;
  FreqSampler sampler(cfg);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Extract(g, rng));
  }
}
BENCHMARK(BM_DualStageSampling);

void BM_AccountantCalibration(benchmark::State& state) {
  DpSgdSpec spec;
  spec.max_occurrences = 6;
  spec.container_size = 300;
  spec.batch_size = 16;
  spec.iterations = 60;
  spec.clip_bound = 1.0;
  RdpAccountant acc = std::move(RdpAccountant::Create(spec)).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.CalibrateSigma({2.0, 1e-5}));
  }
}
BENCHMARK(BM_AccountantCalibration);

// ---- Compiled-plan cases (tensor/plan.h, docs/performance.md): one
// per-sample forward + loss + backward pass of a GRAT training plan, under
// the scalar reference and the optimized compile. ----

void BM_PlanForwardBackward(benchmark::State& state) {
  Rng gen(4);
  Graph g = std::move(ErdosRenyi(static_cast<size_t>(state.range(0)), 0.1,
                                 false, gen))
                .ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);
  Matrix features = BuildNodeFeatures(g);
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  Rng rng(5);
  GnnModel model(cfg, rng);
  ImLossConfig loss_cfg;
  // Arg 1 selects the compiler passes: 0 = scalar reference, 1 = optimized (elementwise fusion +
  // best SIMD tier, PlanOptions::Native(); tolerance contract in
  // docs/performance.md). The label records which tier actually ran so
  // BENCH_plan_compile.json rows are comparable across hosts.
  const bool optimized = state.range(1) != 0;
  const GnnPlan plan = CompileTrainingPlan(
      model, ctx, loss_cfg,
      optimized ? PlanOptions::Native() : PlanOptions::Reference());
  state.SetLabel(optimized ? std::string("fused+") + simd::IsaName(plan.isa())
                           : "reference");
  std::vector<float> params(model.params().num_scalars());
  model.params().FlattenParams(params);
  std::vector<float> grad(params.size());
  PlanArena arena;
  for (auto _ : state) {
    plan.Forward(params, features, arena);
    plan.Backward(params, features, arena, grad);
    benchmark::DoNotOptimize(plan.OutputScalar(arena));
  }
}
BENCHMARK(BM_PlanForwardBackward)
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({80, 0})
    ->Args({80, 1})
    ->Args({200, 0})
    ->Args({200, 1});

// Allocation gate, not a timing case: runs full steady-state training
// iterations (a batch of per-sample Forward + OutputScalar + Backward +
// ClipL2 passes, the index-order batch reduce, and the averaged parameter
// update) with the counting allocator armed, and kills the binary if a
// single heap allocation happens. tools/run_checks.sh runs this case by
// name on every rung, so a regression in the arena layout fails CI loudly
// rather than showing up as a quiet slowdown.
void BM_PlanSteadyStateAllocs(benchmark::State& state) {
  Rng gen(4);
  Graph g = std::move(ErdosRenyi(80, 0.1, false, gen)).ValueOrDie();
  GraphContext ctx = BuildGraphContext(g);
  Matrix features = BuildNodeFeatures(g);
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  Rng rng(5);
  GnnModel model(cfg, rng);
  ImLossConfig loss_cfg;
  // Both the scalar reference plan AND the optimized (fused + SIMD) plan
  // are under the gate: the fusion pass's stage descriptors live on the
  // executor's stack and the kernels are pure, so the zero-allocation
  // guarantee is identical for every PlanOptions.
  const GnnPlan ref_plan =
      CompileTrainingPlan(model, ctx, loss_cfg, PlanOptions::Reference());
  const GnnPlan opt_plan =
      CompileTrainingPlan(model, ctx, loss_cfg, PlanOptions::Native());
  const size_t dim = model.params().num_scalars();
  std::vector<float> params(dim);
  model.params().FlattenParams(params);
  std::vector<float> grad(dim);
  std::vector<float> batch_sum(dim);
  PlanArena arena;
  // Warm pass: the first executions grow the shared arena to both plans'
  // high-water layout.
  for (const GnnPlan* plan : {&ref_plan, &opt_plan}) {
    plan->Forward(params, features, arena);
    plan->Backward(params, features, arena, grad);
  }

  constexpr size_t kBatch = 8;
  uint64_t observed = 0;
  for (auto _ : state) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    std::fill(batch_sum.begin(), batch_sum.end(), 0.0f);
    for (size_t b = 0; b < kBatch; ++b) {
      const GnnPlan& plan = (b % 2 == 0) ? ref_plan : opt_plan;
      plan.Forward(params, features, arena);
      benchmark::DoNotOptimize(plan.OutputScalar(arena));
      plan.Backward(params, features, arena, grad);
      benchmark::DoNotOptimize(ClipL2(grad, 1.0));
      for (size_t i = 0; i < dim; ++i) batch_sum[i] += grad[i];
    }
    for (size_t i = 0; i < dim; ++i) {
      params[i] -= 0.05f * (batch_sum[i] / static_cast<float>(kBatch));
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    observed += g_alloc_count.load(std::memory_order_relaxed);
  }
  state.counters["steady_state_allocs"] = static_cast<double>(observed);
  if (observed != 0) {
    std::fprintf(stderr,
                 "FATAL: compiled-plan steady state performed %llu heap "
                 "allocation(s); tensor/plan.h guarantees zero.\n",
                 static_cast<unsigned long long>(observed));
    std::exit(1);
  }
}
BENCHMARK(BM_PlanSteadyStateAllocs);

// Serving-path allocation gate (src/serve/): a WARM QueryEngine executing
// a mixed stream of all three query types across all three spread
// estimators must never touch the heap. Inference ran once, when the
// snapshot was built, so whole-graph top-k copies a prefix of the
// snapshot's ranking; candidate-restricted top-k de-duplicates in the
// workspace's stamped VisitedSet and partially sorts in the engine's
// ranking buffer;
// diffusion runs in the epoch-stamped workspace, sketch coverage in its
// own stamped VisitedSet, and the response reuses its vectors. Same
// kill-the-binary contract as BM_PlanSteadyStateAllocs;
// tools/run_checks.sh runs both by name.
void BM_ServeSteadyStateAllocs(benchmark::State& state) {
  Rng gen(6);
  Graph g = std::move(ErdosRenyi(80, 0.1, true, gen)).ValueOrDie();
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  Rng rng(7);
  auto model = std::make_unique<GnnModel>(cfg, rng);
  const std::shared_ptr<const ModelSnapshot> snapshot =
      std::move(ModelSnapshot::FromModel(std::move(model), g)).ValueOrDie();
  Rng sketch_rng(8);
  const RrSketch sketch =
      std::move(RrSketch::Generate(g, 256, /*max_steps=*/1, sketch_rng, 1))
          .ValueOrDie();

  std::vector<QueryRequest> mix;
  {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = 10;
    req.estimator = SpreadEstimator::kExact;
    req.max_steps = 1;
    mix.push_back(std::move(req));
  }
  {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = 10;
    req.estimator = SpreadEstimator::kMonteCarloIc;
    req.trials = 8;
    req.max_steps = 1;
    req.seed = 1;
    mix.push_back(std::move(req));
  }
  {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = 4;
    req.candidates = {12, 3, 40, 7, 66, 25, 51, 9};
    req.estimator = SpreadEstimator::kRrSketch;
    mix.push_back(std::move(req));
  }
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {0, 1, 2};
    req.estimator = SpreadEstimator::kMonteCarloIc;
    req.trials = 8;
    req.max_steps = 1;
    req.seed = 2;
    mix.push_back(std::move(req));
  }
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {3, 4};
    req.estimator = SpreadEstimator::kRrSketch;
    mix.push_back(std::move(req));
  }
  {
    QueryRequest req;
    req.type = QueryType::kMarginalGain;
    req.seeds = {0, 1};
    req.candidates = {2, 3, 4, 5};
    req.estimator = SpreadEstimator::kMonteCarloIc;
    req.trials = 8;
    req.max_steps = 1;
    req.seed = 3;
    mix.push_back(std::move(req));
  }

  QueryEngine engine;
  QueryResponse resp;
  // Warm pass: workspace and stamp-set init, ranking-buffer and
  // response-vector high-water.
  for (const QueryRequest& req : mix) {
    const Status s = engine.Execute(g, snapshot.get(), &sketch, req, resp);
    if (!s.ok()) {
      std::fprintf(stderr, "FATAL: warmup query failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
  }

  uint64_t observed = 0;
  for (auto _ : state) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (const QueryRequest& req : mix) {
      engine.Execute(g, snapshot.get(), &sketch, req, resp);
      benchmark::DoNotOptimize(resp.spread);
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    observed += g_alloc_count.load(std::memory_order_relaxed);
  }
  state.counters["steady_state_allocs"] = static_cast<double>(observed);
  if (observed != 0) {
    std::fprintf(stderr,
                 "FATAL: warm serving queries performed %llu heap "
                 "allocation(s); serve/query_engine.h guarantees zero.\n",
                 static_cast<unsigned long long>(observed));
    std::exit(1);
  }
}
BENCHMARK(BM_ServeSteadyStateAllocs);

// Scale smoke (the scale-smoke rung of tools/run_checks.sh runs this case
// by name): a 10^6-node generator graph goes through the streaming
// two-pass build with the byte-tracking allocator armed, and the binary
// dies if the build's peak heap growth exceeds 1.2x the finished CSR —
// the graph/graph.h contract that makes 10^8-arc builds feasible
// (docs/scale.md). The timed section then runs one warm RWR sampling
// round over the million nodes, so the rung also exercises the O(ball)
// hot path at scale (the hard complexity assertions live in
// tests/scale/scale_properties_test.cc).
void BM_ScaleSmoke(benchmark::State& state) {
  constexpr size_t kNodes = 1000000;
  Rng gen(30);
  const double p = 10.0 / static_cast<double>(kNodes - 1);

  g_live_bytes.store(0, std::memory_order_relaxed);
  g_peak_bytes.store(0, std::memory_order_relaxed);
  g_track_bytes.store(true, std::memory_order_relaxed);
  Graph g = std::move(ErdosRenyi(kNodes, p, /*directed=*/true, gen))
                .ValueOrDie();
  g_track_bytes.store(false, std::memory_order_relaxed);

  const double peak =
      static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed));
  const double footprint = static_cast<double>(g.MemoryFootprintBytes());
  const double ratio = peak / footprint;
  if (ratio > 1.2) {
    std::fprintf(stderr,
                 "FATAL: million-node streaming build peaked at %.0f heap "
                 "bytes for a %.0f-byte CSR (%.3fx > 1.2x contract, "
                 "graph/graph.h).\n",
                 peak, footprint, ratio);
    std::exit(1);
  }

  RwrConfig cfg;
  cfg.subgraph_size = 30;
  cfg.sampling_rate = 2e-4;  // ~200 walks per round.
  cfg.hop_bound = 2;
  cfg.num_threads = 1;
  RwrSampler sampler(cfg);
  Rng rng(31);
  // Warm round: sizes the epoch-stamped maps (the one allowed O(|V|)
  // initialization per slot).
  benchmark::DoNotOptimize(sampler.Extract(g, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Extract(g, rng));
  }
  state.counters["build_peak_over_csr"] = ratio;
  state.counters["csr_bytes"] = footprint;
}
BENCHMARK(BM_ScaleSmoke)->Iterations(1)->Unit(benchmark::kMillisecond);

// Incremental-maintenance locality gate (docs/streaming.md): applying a
// small update batch to a large graph must repair only the RR sets that
// read a touched in-row — O(ball), never O(graph). Hard-fails the binary
// when more than 25% of the sketch regenerates for a 16-event batch on a
// 50k-node ring (the bit-identity of the repair is proven in
// tests/stream/; this guards its *cost*). Two cases on one topology:
//   Arg 0: IC weights 0.05, unbounded sets — low weights keep the RR
//          balls small (with unit weights every full-length cascade
//          spans the component and every set is legitimately stale);
//   Arg 1: unit weights at j = 1, the paper's setting and the shape of
//          the shipped stream workload — a set reads only its target's
//          in-row, so locality comes from the step horizon alone.
void BM_StreamUpdate(benchmark::State& state) {
  constexpr size_t kNodes = 50000;
  constexpr size_t kSets = 512;
  const bool unit_weights = state.range(0) == 1;
  const float weight = unit_weights ? 1.0f : 0.05f;
  const int max_steps = unit_weights ? 1 : -1;
  GraphBuilder b(kNodes);
  for (NodeId u = 0; u < kNodes; ++u) {
    (void)b.AddUndirectedEdge(u, (u + 1) % kNodes, weight);
    (void)b.AddUndirectedEdge(u, (u + 17) % kNodes, weight);
  }
  Graph base = std::move(b.Build()).ValueOrDie();
  GraphDelta delta(base);
  GraphView view(base, &delta);
  Rng rng(0x57123);
  RrSketch sketch =
      std::move(RrSketch::Generate(view, kSets, max_steps, rng, 1))
          .ValueOrDie();

  StreamGenConfig gen;
  gen.events_per_batch = 16;
  uint64_t batch_index = 0;
  size_t repaired_total = 0;
  size_t batches = 0;
  for (auto _ : state) {
    UpdateBatch batch =
        MakeSyntheticBatch(view, batch_index++, 0x57124, gen);
    ApplyEffects fx =
        std::move(ApplyUpdateBatch(delta, batch)).ValueOrDie();
    repaired_total +=
        std::move(sketch.Repair(view, fx.changed_in_rows, 1)).ValueOrDie();
    ++batches;
  }
  const double repaired_frac =
      static_cast<double>(repaired_total) /
      (static_cast<double>(batches) * static_cast<double>(kSets));
  if (repaired_frac > 0.25) {
    std::fprintf(stderr,
                 "FATAL: a %zu-event update batch repaired %.1f%% of the "
                 "RR sketch (weights %.2f, max_steps %d) on average "
                 "(> 25%% gate) — incremental repair has lost its O(ball) "
                 "locality (im/rr_sets.h).\n",
                 gen.events_per_batch, 100.0 * repaired_frac,
                 static_cast<double>(weight), max_steps);
    std::exit(1);
  }
  state.counters["repaired_sets_per_batch"] =
      static_cast<double>(repaired_total) / static_cast<double>(batches);
  state.counters["sketch_sets"] = static_cast<double>(kSets);
}
BENCHMARK(BM_StreamUpdate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CelfVsGreedy(benchmark::State& state) {
  Graph g = SharedGraph(1500);
  std::vector<NodeId> candidates(g.num_nodes());
  for (size_t u = 0; u < candidates.size(); ++u) {
    candidates[u] = static_cast<NodeId>(u);
  }
  SpreadOracle oracle = MakeExactUnitOracle(g, 1);
  const bool lazy = state.range(0) != 0;
  for (auto _ : state) {
    if (lazy) {
      benchmark::DoNotOptimize(CelfSelect(candidates, 20, oracle));
    } else {
      benchmark::DoNotOptimize(GreedySelect(candidates, 20, oracle));
    }
  }
}
BENCHMARK(BM_CelfVsGreedy)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Ablation #4 (DESIGN.md): exact unit-weight oracle vs Monte-Carlo IC.
void BM_SpreadOracles(benchmark::State& state) {
  Graph g = SharedGraph(2000);
  Rng rng(6);
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < 50; ++s) seeds.push_back(s * 7);
  const bool exact = state.range(0) != 0;
  for (auto _ : state) {
    if (exact) {
      benchmark::DoNotOptimize(ExactUnitWeightSpread(g, seeds, 1));
    } else {
      benchmark::DoNotOptimize(EstimateIcSpread(g, seeds, 100, rng, 1));
    }
  }
}
BENCHMARK(BM_SpreadOracles)->Arg(1)->Arg(0);

// ---- Serial vs parallel runtime cases. Arg(0) is the thread count (1 =
// serial inline path); results are bit-identical across counts, so these
// measure pure speedup. On an n-core machine expect the Arg(n) rows to
// approach n-fold throughput for the embarrassingly parallel loops. ----

void BM_ParallelBatchGradients(benchmark::State& state) {
  Rng gen(8);
  Graph g = std::move(BarabasiAlbert(800, 5, gen)).ValueOrDie();
  FreqSamplingConfig scfg;
  scfg.subgraph_size = 40;
  scfg.sampling_rate = 1.0;
  scfg.frequency_threshold = 20;
  Rng srng(9);
  DualStageResult sampled =
      std::move(FreqSampler(scfg).Extract(g, srng)).ValueOrDie();
  GnnConfig gcfg;
  gcfg.type = GnnType::kGrat;
  gcfg.in_dim = kNodeFeatureDim;
  Rng mrng(10);
  GnnModel model(gcfg, mrng);
  TrainConfig tcfg;
  tcfg.batch_size = 16;
  tcfg.iterations = 4;
  tcfg.noise_kind = NoiseKind::kNone;
  tcfg.num_threads = static_cast<size_t>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainDpGnn(model, sampled.container, tcfg,
                                        rng));
  }
}
BENCHMARK(BM_ParallelBatchGradients)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Full training iterations (4 iterations x batch 16, GRAT, serial) on the
// default optimized plans.
void BM_TrainIteration(benchmark::State& state) {
  Rng gen(8);
  Graph g = std::move(BarabasiAlbert(800, 5, gen)).ValueOrDie();
  FreqSamplingConfig scfg;
  scfg.subgraph_size = 40;
  scfg.sampling_rate = 1.0;
  scfg.frequency_threshold = 20;
  Rng srng(9);
  DualStageResult sampled =
      std::move(FreqSampler(scfg).Extract(g, srng)).ValueOrDie();
  GnnConfig gcfg;
  gcfg.type = GnnType::kGrat;
  gcfg.in_dim = kNodeFeatureDim;
  Rng mrng(10);
  GnnModel model(gcfg, mrng);
  TrainConfig tcfg;
  tcfg.batch_size = 16;
  tcfg.iterations = 4;
  tcfg.noise_kind = NoiseKind::kNone;
  tcfg.num_threads = 1;
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainDpGnn(model, sampled.container, tcfg,
                                        rng));
  }
}
BENCHMARK(BM_TrainIteration)->Unit(benchmark::kMillisecond);

// Telemetry overhead on the training hot path: identical training loop with
// the full instrument set attached (Arg(1)) vs disabled (Arg(0)). The
// acceptance bar is <3% overhead — recording is a handful of relaxed atomic
// adds per sample against a forward/backward pass that dominates by orders
// of magnitude.
void BM_TrainTelemetryOverhead(benchmark::State& state) {
  Rng gen(14);
  Graph g = std::move(BarabasiAlbert(800, 5, gen)).ValueOrDie();
  FreqSamplingConfig scfg;
  scfg.subgraph_size = 40;
  scfg.sampling_rate = 1.0;
  scfg.frequency_threshold = 20;
  Rng srng(15);
  DualStageResult sampled =
      std::move(FreqSampler(scfg).Extract(g, srng)).ValueOrDie();
  GnnConfig gcfg;
  gcfg.type = GnnType::kGrat;
  gcfg.in_dim = kNodeFeatureDim;
  Rng mrng(16);
  GnnModel model(gcfg, mrng);
  RunTelemetry telemetry;
  TrainConfig tcfg;
  tcfg.batch_size = 16;
  tcfg.iterations = 4;
  tcfg.noise_stddev = 0.05;
  tcfg.telemetry = state.range(0) != 0 ? &telemetry : nullptr;
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainDpGnn(model, sampled.container, tcfg,
                                        rng));
    telemetry.train.clear();
  }
}
BENCHMARK(BM_TrainTelemetryOverhead)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelContainerSampling(benchmark::State& state) {
  Graph g = SharedGraph(4000);
  FreqSamplingConfig cfg;
  cfg.subgraph_size = 40;
  cfg.sampling_rate = 0.5;
  cfg.frequency_threshold = 6;
  cfg.num_threads = static_cast<size_t>(state.range(0));
  FreqSampler sampler(cfg);
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Extract(g, rng));
  }
}
BENCHMARK(BM_ParallelContainerSampling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelMcSpread(benchmark::State& state) {
  Graph g = SharedGraph(4000);
  Rng rng(13);
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < 50; ++s) seeds.push_back(s * 11);
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateIcSpread(g, seeds, /*trials=*/256, rng, /*max_steps=*/-1,
                         threads));
  }
}
BENCHMARK(BM_ParallelMcSpread)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- Scratch-workspace hot-path cases (docs/performance.md). A 100k-node
// small-world graph (Watts-Strogatz, 10 neighbors per node, 5% rewired)
// keeps 3-hop balls local, which is the regime the r-hop constraint is
// designed to produce (|N_r(v)| ≪ |V|) and the one where per-walk /
// per-trial O(num_nodes) initialization dominates: before the
// epoch-stamped workspaces, every attempted RWR walk allocated and filled
// a 100k-entry hop-distance vector and every IC Monte-Carlo trial a
// 100k-entry active bitmap, even though each touches only a few dozen
// nodes. (On a hub-dominated graph the 3-hop ball is most of the graph
// and the irreducible ball BFS dominates instead — the workspaces are
// neutral there.) The before/after numbers are recorded in
// BENCH_scratch_workspaces.json.

Graph& Synthetic100k() {
  static Graph* g = new Graph([] {
    Rng rng(21);
    return std::move(WattsStrogatz(100000, 5, 0.05, rng)).ValueOrDie();
  }());
  return *g;
}

Graph& SyntheticWeighted100k() {
  static Graph* g =
      new Graph(std::move(WeightedCascade(Synthetic100k())).ValueOrDie());
  return *g;
}

void BM_RwrWalks100k(benchmark::State& state) {
  Graph& g = Synthetic100k();
  RwrConfig cfg;
  cfg.subgraph_size = 20;  // 3-hop balls hold ~30-80 nodes here.
  cfg.sampling_rate = 0.02;  // ~2000 attempted walks per Extract.
  cfg.num_threads = static_cast<size_t>(state.range(0));
  RwrSampler sampler(cfg);
  Rng rng(22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Extract(g, rng));
  }
}
BENCHMARK(BM_RwrWalks100k)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_IcTrials100k(benchmark::State& state) {
  Graph& g = SyntheticWeighted100k();
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < 50; ++s) seeds.push_back(s * 1997);
  const size_t threads = static_cast<size_t>(state.range(0));
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateIcSpread(g, seeds, /*trials=*/256, rng,
                                              /*max_steps=*/2, threads));
  }
}
BENCHMARK(BM_IcTrials100k)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// CELF's lazy-gain loop evaluates thousands of single-candidate seed sets
// (MakeMonteCarloOracle probes), so single-seed trials are where most
// Monte-Carlo time goes in practice — and the regime where the cascade
// touches ~a handful of nodes while the old code still paid O(num_nodes)
// per trial.
void BM_IcProbe100k(benchmark::State& state) {
  Graph& g = SyntheticWeighted100k();
  std::vector<NodeId> probe{777};
  const size_t threads = static_cast<size_t>(state.range(0));
  Rng rng(24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateIcSpread(g, probe, /*trials=*/256, rng,
                                              /*max_steps=*/2, threads));
  }
}
BENCHMARK(BM_IcProbe100k)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SegmentSoftmax(benchmark::State& state) {
  const size_t edges = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Matrix scores(edges, 1);
  std::vector<uint32_t> group(edges);
  const size_t groups = edges / 8 + 1;
  for (size_t e = 0; e < edges; ++e) {
    scores(e, 0) = static_cast<float>(rng.Uniform(-1, 1));
    group[e] = static_cast<uint32_t>(rng.UniformInt(groups));
  }
  PlanBuilder pb;
  const GnnPlan plan = pb.Build(
      pb.SegmentSoftmax(pb.Input(edges, 1), group, groups));
  PlanArena arena;
  for (auto _ : state) {
    plan.Forward({}, scores, arena);
    benchmark::DoNotOptimize(plan.Output(arena)[0]);
  }
}
BENCHMARK(BM_SegmentSoftmax)->Arg(1000)->Arg(10000);

// Overlap-scheduler gate (src/shard/overlap.h): the full sharded pipeline
// at 2 shards, inner threads = 1, run once with the overlap scheduler and
// once fully serialized. The scheduler's contract (docs/sharding.md,
// BENCH_shard.json) is that pipelining shard k+1's sampling against shard
// k's training saves at least 20% wall-clock over strictly serialized
// stages; the binary dies if it doesn't, so tools/run_checks.sh catches a
// scheduler regression on every rung. Results must also be bit-identical
// between the two schedules — overlap is pure scheduling.
void BM_ShardOverlap(benchmark::State& state) {
  Rng gen(42);
  Graph full = std::move(MakeDataset(DatasetId::kEmail, gen, 0.5))
                   .ValueOrDie();
  Rng split_rng(43);
  NodeSplit split =
      std::move(SplitNodes(full.num_nodes(), split_rng)).ValueOrDie();
  Subgraph train_sub =
      std::move(InduceSubgraph(full, split.train)).ValueOrDie();
  Subgraph eval_sub =
      std::move(InduceSubgraph(full, split.test)).ValueOrDie();

  PrivImConfig cfg = MakeDefaultConfig(Method::kPrivImStar, 2.0,
                                       train_sub.local.num_nodes());
  cfg.seed_count = 10;
  cfg.runtime.num_threads = 1;
  ShardRunOptions options;
  options.num_shards = 2;
  options.seed = 42;

  // Warm-up run (untimed): first-touch page faults, allocator growth, and
  // plan-cache fills would otherwise all land on whichever schedule runs
  // first and swamp the comparison.
  {
    options.overlap = false;
    ShardRunner warmup(train_sub.local, eval_sub.local, cfg, options);
    benchmark::DoNotOptimize(std::move(warmup.Run()).ValueOrDie().spread);
  }

  double overlap_wall = 0.0;
  double stage_sum = 0.0;
  std::vector<NodeId> overlap_seeds;
  std::vector<NodeId> serial_seeds;
  for (auto _ : state) {
    options.overlap = true;
    ShardRunner overlapped(train_sub.local, eval_sub.local, cfg, options);
    ShardedRunResult with =
        std::move(overlapped.Run()).ValueOrDie();
    overlap_wall += with.wall_seconds;
    stage_sum += with.stage_seconds;
    overlap_seeds = with.seeds;

    options.overlap = false;
    ShardRunner serialized(train_sub.local, eval_sub.local, cfg, options);
    ShardedRunResult without =
        std::move(serialized.Run()).ValueOrDie();
    serial_seeds = without.seeds;
  }
  // The overlap-timing methodology of docs/sharding.md: the per-stage
  // timers sum to what strictly serialized stages cost (stage_seconds);
  // end-to-end wall below that sum proves stages of different shards
  // genuinely overlapped in time (the metric is meaningful on any core
  // count, unlike run-vs-run walls, which only diverge with >= 2 CPUs).
  const double saved =
      stage_sum > 0.0 ? 100.0 * (1.0 - overlap_wall / stage_sum) : 0.0;
  state.counters["savings_pct"] = saved;
  if (overlap_seeds != serial_seeds) {
    std::fprintf(stderr,
                 "FATAL: the overlap scheduler changed the merged seed "
                 "set; scheduling must be invisible to results "
                 "(shard/overlap.h).\n");
    std::exit(1);
  }
  if (saved < 20.0) {
    std::fprintf(stderr,
                 "FATAL: overlap scheduler saved only %.1f%% wall-clock "
                 "vs serialized stages at 2 shards; the >= 20%% contract "
                 "(docs/sharding.md) is broken.\n",
                 saved);
    std::exit(1);
  }
}
BENCHMARK(BM_ShardOverlap)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace privim

BENCHMARK_MAIN();
