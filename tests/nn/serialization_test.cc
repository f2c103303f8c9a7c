#include "nn/serialization.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "nn/features.h"

namespace privim {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GnnConfig SmallConfig(GnnType type = GnnType::kGrat) {
  GnnConfig cfg;
  cfg.type = type;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  return cfg;
}

TEST(SerializationTest, RoundTripPreservesScores) {
  Rng rng(1);
  GnnModel model(SmallConfig(), rng);
  const std::string path = TempPath("privim_model_roundtrip.ckpt");
  ASSERT_TRUE(SaveModel(model, path).ok());

  Rng rng2(999);  // Different init; must be overwritten by the load.
  GnnModel loaded(SmallConfig(), rng2);
  ASSERT_TRUE(LoadModelParams(path, loaded).ok());

  Rng graph_rng(3);
  Graph g = std::move(ErdosRenyi(25, 0.2, true, graph_rng)).ValueOrDie();
  const std::vector<float> a =
      std::move(InferSeedLogits(model, g, PlanOptions::Reference()))
          .ValueOrDie();
  const std::vector<float> b =
      std::move(InferSeedLogits(loaded, g, PlanOptions::Reference()))
          .ValueOrDie();
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(a[u], b[u], 1e-5) << "node " << u;
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, ConfigHeaderReadable) {
  Rng rng(4);
  GnnModel model(SmallConfig(GnnType::kGin), rng);
  const std::string path = TempPath("privim_model_header.ckpt");
  ASSERT_TRUE(SaveModel(model, path).ok());
  GnnConfig cfg = std::move(LoadModelConfig(path)).ValueOrDie();
  EXPECT_EQ(cfg.type, GnnType::kGin);
  EXPECT_EQ(cfg.in_dim, kNodeFeatureDim);
  EXPECT_EQ(cfg.hidden_dim, 8u);
  EXPECT_EQ(cfg.num_layers, 2u);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsMismatchedConfig) {
  Rng rng(5);
  GnnModel model(SmallConfig(GnnType::kGcn), rng);
  const std::string path = TempPath("privim_model_mismatch.ckpt");
  ASSERT_TRUE(SaveModel(model, path).ok());

  Rng rng2(6);
  GnnModel other(SmallConfig(GnnType::kGat), rng2);
  EXPECT_EQ(LoadModelParams(path, other).code(),
            StatusCode::kFailedPrecondition);

  GnnConfig bigger = SmallConfig(GnnType::kGcn);
  bigger.hidden_dim = 16;
  Rng rng3(7);
  GnnModel wide(bigger, rng3);
  EXPECT_EQ(LoadModelParams(path, wide).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsGarbageFile) {
  const std::string path = TempPath("privim_model_garbage.ckpt");
  {
    std::ofstream out(path);
    out << "definitely not a checkpoint\n";
  }
  EXPECT_FALSE(LoadModelConfig(path).ok());
  Rng rng(8);
  GnnModel model(SmallConfig(), rng);
  EXPECT_FALSE(LoadModelParams(path, model).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileFails) {
  EXPECT_EQ(LoadModelConfig("/no/such/file.ckpt").status().code(),
            StatusCode::kIoError);
}

TEST(SerializationTest, LoadModelRebuildsFromHeader) {
  Rng rng(12);
  GnnModel model(SmallConfig(GnnType::kSage), rng);
  const std::string path = TempPath("privim_model_loadmodel.ckpt");
  ASSERT_TRUE(SaveModel(model, path).ok());

  std::unique_ptr<GnnModel> loaded = std::move(LoadModel(path)).ValueOrDie();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->config().type, GnnType::kSage);
  EXPECT_EQ(loaded->config().hidden_dim, 8u);
  EXPECT_EQ(loaded->config().num_layers, 2u);

  std::vector<float> want(model.params().num_scalars());
  std::vector<float> got(loaded->params().num_scalars());
  ASSERT_EQ(want.size(), got.size());
  model.params().FlattenParams(want);
  loaded->params().FlattenParams(got);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(want[i], got[i], 1e-6) << "scalar " << i;
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadModelMissingFileFails) {
  EXPECT_EQ(LoadModel("/no/such/model.ckpt").status().code(),
            StatusCode::kIoError);
}

// Regression: load-path errors must name the offending file and, where
// the failure smells like a version/artifact mix-up, say so — "bad magic"
// alone sends users grepping the codebase instead of checking which file
// they passed (the serving layer surfaces these verbatim).
TEST(SerializationTest, ErrorsNameTheOffendingPath) {
  const std::string missing = TempPath("privim_model_gone.ckpt");
  const Status open_err = LoadModelConfig(missing).status();
  EXPECT_EQ(open_err.code(), StatusCode::kIoError);
  EXPECT_NE(open_err.message().find(missing), std::string::npos)
      << open_err.ToString();

  const std::string garbage = TempPath("privim_model_badmagic.ckpt");
  {
    std::ofstream out(garbage);
    out << "definitely not a checkpoint\n";
  }
  const Status magic_err = LoadModelConfig(garbage).status();
  EXPECT_FALSE(magic_err.ok());
  EXPECT_NE(magic_err.message().find(garbage), std::string::npos)
      << magic_err.ToString();
  // The snapshot-version hint: tells the user this may be an artifact
  // from an incompatible format version, not a corrupted disk.
  EXPECT_NE(magic_err.message().find("version"), std::string::npos)
      << magic_err.ToString();
  std::remove(garbage.c_str());
}

TEST(SerializationTest, ConfigMismatchEnumeratesBothConfigs) {
  Rng rng(41);
  GnnModel model(SmallConfig(GnnType::kGcn), rng);
  const std::string path = TempPath("privim_model_mismatch_msg.ckpt");
  ASSERT_TRUE(SaveModel(model, path).ok());

  GnnConfig bigger = SmallConfig(GnnType::kGcn);
  bigger.hidden_dim = 16;
  Rng rng2(42);
  GnnModel wide(bigger, rng2);
  const Status s = LoadModelParams(path, wide);
  ASSERT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  // Both shapes spelled out, plus the provenance hint.
  EXPECT_NE(s.message().find("hidden=8"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("hidden=16"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("--gnn"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(SerializationTest, AllBackbonesRoundTrip) {
  for (GnnType type : {GnnType::kGcn, GnnType::kSage, GnnType::kGin,
                       GnnType::kGat, GnnType::kGrat}) {
    Rng rng(10 + static_cast<uint64_t>(type));
    GnnModel model(SmallConfig(type), rng);
    const std::string path = TempPath("privim_model_bb.ckpt");
    ASSERT_TRUE(SaveModel(model, path).ok()) << GnnTypeName(type);
    Rng rng2(99);
    GnnModel loaded(SmallConfig(type), rng2);
    EXPECT_TRUE(LoadModelParams(path, loaded).ok()) << GnnTypeName(type);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace privim
