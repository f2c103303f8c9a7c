#include "nn/serialization.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace privim {

namespace {

constexpr char kMagic[] = "privim-gnn-v1";

}  // namespace

Status SaveModel(const GnnModel& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError(StrFormat("cannot open '%s'", path.c_str()));
  }
  const GnnConfig& cfg = model.config();
  out << kMagic << "\n";
  out << "type " << GnnTypeName(cfg.type) << "\n";
  out << "in_dim " << cfg.in_dim << "\n";
  out << "hidden_dim " << cfg.hidden_dim << "\n";
  out << "num_layers " << cfg.num_layers << "\n";
  out << "tensors " << model.params().num_tensors() << "\n";
  const ParamStore& store = model.params();
  // Full float precision so a reloaded model reproduces scores bit-close.
  out.precision(9);
  for (const ParamEntry& p : store.entries()) {
    out << "tensor " << p.name << " " << p.rows << " " << p.cols << "\n";
    for (size_t r = 0; r < p.rows; ++r) {
      const float* row = store.values().data() + p.offset + r * p.cols;
      for (size_t c = 0; c < p.cols; ++c) {
        out << row[c] << (c + 1 == p.cols ? '\n' : ' ');
      }
    }
  }
  if (!out) {
    return Status::IoError(StrFormat("write failed for '%s'", path.c_str()));
  }
  return Status::OK();
}

namespace {

/// Parsed checkpoint header (Result-first: no out-parameters).
struct ModelHeader {
  GnnConfig config;
  size_t num_tensors = 0;
};

/// Every header diagnostic names the offending file: a serving operator
/// pointing --snapshot at the wrong artifact gets the path and a hint, not
/// a bare parse failure (tests/nn/serialization_test.cc pins this).
Result<ModelHeader> ReadHeader(std::istream& in, const std::string& path) {
  std::string magic;
  if (!std::getline(in, magic) || Trim(magic) != kMagic) {
    return Status::IoError(StrFormat(
        "'%s' is not a PrivIM model checkpoint (expected magic '%s'); the "
        "file may be from an incompatible model-format version, or a "
        "pipeline/trainer snapshot from --checkpoint-dir — model "
        "checkpoints are the files written by SaveModel / --save-model",
        path.c_str(), kMagic));
  }
  ModelHeader header;
  std::string key, value;
  const auto malformed = [&path](const char* field) {
    return Status::IoError(StrFormat(
        "model checkpoint '%s': missing '%s' header field (truncated or "
        "corrupted file, or a different model-format version)",
        path.c_str(), field));
  };
  // type
  in >> key >> value;
  if (key != "type") return malformed("type");
  PRIVIM_ASSIGN_OR_RETURN(header.config.type, ParseGnnType(value));
  in >> key >> header.config.in_dim;
  if (key != "in_dim") return malformed("in_dim");
  in >> key >> header.config.hidden_dim;
  if (key != "hidden_dim") return malformed("hidden_dim");
  in >> key >> header.config.num_layers;
  if (key != "num_layers") return malformed("num_layers");
  in >> key >> header.num_tensors;
  if (key != "tensors") return malformed("tensors");
  return header;
}

}  // namespace

Result<GnnConfig> LoadModelConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError(StrFormat(
        "cannot open model checkpoint '%s'", path.c_str()));
  }
  PRIVIM_ASSIGN_OR_RETURN(ModelHeader header, ReadHeader(in, path));
  return header.config;
}

Status LoadModelParams(const std::string& path, GnnModel& model) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError(StrFormat(
        "cannot open model checkpoint '%s'", path.c_str()));
  }
  PRIVIM_ASSIGN_OR_RETURN(ModelHeader header, ReadHeader(in, path));
  const GnnConfig& cfg = header.config;
  const size_t num_tensors = header.num_tensors;
  const GnnConfig& want = model.config();
  if (cfg.type != want.type || cfg.in_dim != want.in_dim ||
      cfg.hidden_dim != want.hidden_dim ||
      cfg.num_layers != want.num_layers) {
    return Status::FailedPrecondition(StrFormat(
        "model checkpoint '%s' holds a %s[in=%zu,hidden=%zu,layers=%zu] "
        "model but the target model is %s[in=%zu,hidden=%zu,layers=%zu]; "
        "the checkpoint likely comes from a run with a different --gnn or "
        "feature configuration",
        path.c_str(), GnnTypeName(cfg.type).c_str(), cfg.in_dim,
        cfg.hidden_dim, cfg.num_layers, GnnTypeName(want.type).c_str(),
        want.in_dim, want.hidden_dim, want.num_layers));
  }
  if (num_tensors != model.params().num_tensors()) {
    return Status::FailedPrecondition(StrFormat(
        "model checkpoint '%s' has %zu tensors, model has %zu (stale or "
        "version-mismatched checkpoint)",
        path.c_str(), num_tensors, model.params().num_tensors()));
  }

  std::vector<float> flat(model.params().num_scalars());
  size_t pos = 0;
  for (size_t i = 0; i < num_tensors; ++i) {
    std::string tag, name;
    size_t rows = 0, cols = 0;
    if (!(in >> tag >> name >> rows >> cols) || tag != "tensor") {
      return Status::IoError(StrFormat(
          "model checkpoint '%s': malformed tensor block %zu", path.c_str(),
          i));
    }
    const ParamEntry& p = model.params().entries()[i];
    if (name != p.name || rows != p.rows || cols != p.cols) {
      return Status::FailedPrecondition(StrFormat(
          "model checkpoint '%s': tensor %zu mismatch: checkpoint %s[%zux%zu]"
          " vs model %s[%zux%zu]",
          path.c_str(), i, name.c_str(), rows, cols, p.name.c_str(), p.rows,
          p.cols));
    }
    for (size_t k = 0; k < rows * cols; ++k) {
      if (!(in >> flat[pos])) {
        return Status::IoError(StrFormat(
            "model checkpoint '%s': truncated values in tensor '%s'",
            path.c_str(), name.c_str()));
      }
      ++pos;
    }
  }
  model.params().LoadParams(flat);
  return Status::OK();
}

Result<std::unique_ptr<GnnModel>> LoadModel(const std::string& path) {
  PRIVIM_ASSIGN_OR_RETURN(GnnConfig cfg, LoadModelConfig(path));
  // The init randomness is overwritten by the stored parameters, so a
  // fixed throwaway seed keeps LoadModel deterministic and argument-free.
  Rng init_rng(0x10ad);
  auto model = std::make_unique<GnnModel>(cfg, init_rng);
  PRIVIM_RETURN_NOT_OK(LoadModelParams(path, *model));
  return model;
}

}  // namespace privim
