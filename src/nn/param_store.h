#ifndef PRIVIM_NN_PARAM_STORE_H_
#define PRIVIM_NN_PARAM_STORE_H_

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/plan.h"

namespace privim {

/// One parameter tensor: a [rows, cols] row-major block at `offset` of the
/// store's flat vector.
struct ParamEntry {
  std::string name;
  size_t offset = 0;
  size_t rows = 0;
  size_t cols = 0;

  size_t size() const { return rows * cols; }
  /// Declares this parameter in a plan (PlanBuilder::Param).
  PlanValId Bind(PlanBuilder& pb) const { return pb.Param(offset, rows, cols); }
};

/// Owns a model's trainable parameters as one flat vector, in creation
/// order — the layout compiled plans bind (`values()`), DP-SGD clips and
/// noises, and checkpoints store.
class ParamStore {
 public:
  ParamStore() = default;

  /// Appends a [rows, cols] parameter initialized Glorot-uniform with the
  /// given fan-in/fan-out (pass 0/0 to use rows/cols).
  ParamEntry NewGlorot(const std::string& name, size_t rows, size_t cols,
                       Rng& rng, size_t fan_in = 0, size_t fan_out = 0);

  /// Appends a parameter filled with a constant.
  ParamEntry NewConstant(const std::string& name, size_t rows, size_t cols,
                         float value);

  size_t num_tensors() const { return entries_.size(); }
  /// Total number of scalar parameters.
  size_t num_scalars() const { return values_.size(); }

  const std::vector<ParamEntry>& entries() const { return entries_; }

  /// The flat parameter vector.
  std::span<const float> values() const { return values_; }
  std::span<float> values() { return values_; }

  /// Copies all parameter values into `out` (size must equal num_scalars()).
  void FlattenParams(std::span<float> out) const;

  /// Overwrites parameter values from `in`.
  void LoadParams(std::span<const float> in);

  /// In-place update: params -= step * delta (delta flat, length
  /// num_scalars()).
  void ApplyUpdate(std::span<const float> delta, float step);

 private:
  ParamEntry Append(const std::string& name, size_t rows, size_t cols);

  std::vector<float> values_;
  std::vector<ParamEntry> entries_;
};

}  // namespace privim

#endif  // PRIVIM_NN_PARAM_STORE_H_
