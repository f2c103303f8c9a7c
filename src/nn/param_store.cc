#include "nn/param_store.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace privim {

ParamEntry ParamStore::Append(const std::string& name, size_t rows,
                              size_t cols) {
  ParamEntry e{name, values_.size(), rows, cols};
  values_.resize(values_.size() + e.size());
  entries_.push_back(e);
  return e;
}

ParamEntry ParamStore::NewGlorot(const std::string& name, size_t rows,
                                 size_t cols, Rng& rng, size_t fan_in,
                                 size_t fan_out) {
  if (fan_in == 0) fan_in = rows;
  if (fan_out == 0) fan_out = cols;
  const double bound =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  const ParamEntry e = Append(name, rows, cols);
  for (size_t i = 0; i < e.size(); ++i) {
    values_[e.offset + i] = static_cast<float>(rng.Uniform(-bound, bound));
  }
  return e;
}

ParamEntry ParamStore::NewConstant(const std::string& name, size_t rows,
                                   size_t cols, float value) {
  const ParamEntry e = Append(name, rows, cols);
  std::fill_n(values_.begin() + e.offset, e.size(), value);
  return e;
}

void ParamStore::FlattenParams(std::span<float> out) const {
  PRIVIM_CHECK_EQ(out.size(), values_.size());
  std::copy(values_.begin(), values_.end(), out.begin());
}

void ParamStore::LoadParams(std::span<const float> in) {
  PRIVIM_CHECK_EQ(in.size(), values_.size());
  std::copy(in.begin(), in.end(), values_.begin());
}

void ParamStore::ApplyUpdate(std::span<const float> delta, float step) {
  PRIVIM_CHECK_EQ(delta.size(), values_.size());
  for (size_t i = 0; i < values_.size(); ++i) values_[i] -= step * delta[i];
}

}  // namespace privim
