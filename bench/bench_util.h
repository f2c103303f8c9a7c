#ifndef PRIVIM_BENCH_BENCH_UTIL_H_
#define PRIVIM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "common/timer.h"

namespace privim::bench {

/// Aborts the bench with a readable message on error; bench binaries have
/// no meaningful partial results.
inline void DieOnError(const Status& status, const std::string& what) {
  if (!status.ok()) {
    std::cerr << "bench failed during " << what << ": "
              << status.ToString() << "\n";
    std::exit(1);
  }
}

template <typename T>
T DieOnError(Result<T> result, const std::string& what) {
  DieOnError(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Median of a sample (averaging the two central elements for even sizes).
/// Benches report medians rather than means: wall-clock samples on shared
/// machines are contaminated by one-sided scheduling outliers, which shift
/// a mean but not a median.
inline double Median(std::vector<double> values) {
  PRIVIM_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

/// Times `fn` `repeats` times on the monotonic clock (common/timer.h) and
/// returns the median seconds per call.
inline double MedianSeconds(size_t repeats, const std::function<void()>& fn) {
  PRIVIM_CHECK_GT(repeats, 0u);
  std::vector<double> samples;
  samples.reserve(repeats);
  for (size_t r = 0; r < repeats; ++r) {
    WallTimer timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  return Median(std::move(samples));
}

/// Short sha of the checkout HEAD (`git rev-parse --short HEAD` in the
/// working directory), or "unknown" outside a git checkout. Stamped into
/// BENCH rows so every number names the code it measured.
inline std::string GitSha() {
  std::string sha;
  if (FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    while (fgets(buf, sizeof(buf), pipe) != nullptr) sha += buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace privim::bench

#endif  // PRIVIM_BENCH_BENCH_UTIL_H_
