#include "shard/overlap.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace privim {

namespace {

// Shards in flight at once under the overlapped schedule.
constexpr size_t kMaxInFlight = 2;

}  // namespace

Status RunStagePipeline(size_t num_shards, bool overlap,
                        const std::function<Status(size_t)>& stage_a,
                        const std::function<Status(size_t)>& stage_b) {
  if (stage_a == nullptr || stage_b == nullptr) {
    return Status::InvalidArgument("RunStagePipeline: null stage callback");
  }
  if (!overlap || num_shards <= 1) {
    for (size_t s = 0; s < num_shards; ++s) {
      PRIVIM_RETURN_NOT_OK(stage_a(s));
      PRIVIM_RETURN_NOT_OK(stage_b(s));
    }
    return Status::OK();
  }

  std::atomic<size_t> next_shard{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  Status first_error;  // Guarded by mu.

  auto worker = [&]() {
    for (;;) {
      if (failed.load(std::memory_order_acquire)) return;
      const size_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (s >= num_shards) return;
      Status st = stage_a(s);
      if (st.ok()) st = stage_b(s);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = std::move(st);
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  };

  const size_t workers = std::min(kMaxInFlight, num_shards);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t i = 0; i < workers; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return first_error;
}

}  // namespace privim
