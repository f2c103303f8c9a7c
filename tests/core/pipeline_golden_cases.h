#ifndef PRIVIM_TESTS_CORE_PIPELINE_GOLDEN_CASES_H_
#define PRIVIM_TESTS_CORE_PIPELINE_GOLDEN_CASES_H_

// The end-to-end RunMethod cases pinned by tests/core/pipeline_goldens.inc,
// shared by tools/golden_gen.cc (which writes the constants) and
// tests/core/pipeline_golden_test.cc (which recomputes and compares).
//
// Each case runs the whole pipeline — sampling, auto-clip, sigma
// calibration, DP training, evaluation inference, top-k and the exact
// evaluation oracle — on a small fixed graph pair, and reduces the outcome
// to the seed set, the spread and an FNV-1a hash of the final flat
// parameters. Training compiles the scalar reference plans
// (`plan_optimize = false`), so the constants do not depend on the SIMD
// tier of the host.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/privim.h"
#include "graph/generators.h"
#include "nn/gnn.h"
#include "tests/sampling/golden_hash.h"

namespace privim {
namespace pipeline_golden {

struct Case {
  const char* name;
  Method method;
  GnnType gnn;
};

inline constexpr Case kCases[] = {
    {"GcnStar", Method::kPrivImStar, GnnType::kGcn},
    {"SageStar", Method::kPrivImStar, GnnType::kSage},
    {"GinStar", Method::kPrivImStar, GnnType::kGin},
    {"GatStar", Method::kPrivImStar, GnnType::kGat},
    {"GratStar", Method::kPrivImStar, GnnType::kGrat},
    {"GratNonPrivate", Method::kNonPrivate, GnnType::kGrat},
};

struct GraphPair {
  Graph train;
  Graph eval;
};

inline const GraphPair& Graphs() {
  static const GraphPair* g = new GraphPair([] {
    Rng rng(31);
    GraphPair p;
    p.train = std::move(BarabasiAlbert(240, 3, rng)).ValueOrDie();
    p.eval = std::move(BarabasiAlbert(300, 3, rng)).ValueOrDie();
    return p;
  }());
  return *g;
}

inline PrivImConfig MakeConfig(const Case& c) {
  PrivImConfig cfg = MakeDefaultConfig(c.method, /*epsilon=*/4.0,
                                       Graphs().train.num_nodes());
  cfg.gnn.type = c.gnn;
  cfg.train.iterations = 8;
  cfg.train.batch_size = 6;
  cfg.train.plan_optimize = false;
  cfg.freq.subgraph_size = 12;
  cfg.rwr.subgraph_size = 12;
  cfg.seed_count = 8;
  return cfg;
}

struct Outcome {
  uint64_t seeds_hash = 0;
  double spread = 0.0;
  uint64_t params_hash = 0;
};

inline Outcome Run(const Case& c) {
  const PrivImConfig cfg = MakeConfig(c);
  Rng rng(41);
  std::unique_ptr<GnnModel> model;
  PrivImRunResult r =
      std::move(RunMethod(Graphs().train, Graphs().eval, cfg, rng, &model))
          .ValueOrDie();
  Outcome out;
  out.seeds_hash = HashNodeVector(r.seeds);
  out.spread = r.spread;
  std::vector<float> flat(model->params().num_scalars());
  model->params().FlattenParams(flat);
  GoldenHasher h;
  h.Mix(static_cast<uint64_t>(flat.size()));
  for (float v : flat) h.Mix(v);
  out.params_hash = h.value();
  return out;
}

}  // namespace pipeline_golden
}  // namespace privim

#endif  // PRIVIM_TESTS_CORE_PIPELINE_GOLDEN_CASES_H_
