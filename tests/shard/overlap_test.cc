// RunStagePipeline: serial schedule ordering, a latch-based proof that the
// overlap scheduler really runs shard k+1's stage A concurrently with
// shard k's stage B (wall-clock-free, so it cannot flake on slow
// machines), the bound of two shards in flight, and first-error-wins
// propagation.

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shard/overlap.h"

namespace privim {
namespace {

TEST(OverlapTest, SerialModeRunsStagesInOrder) {
  std::vector<std::string> trace;
  ASSERT_TRUE(RunStagePipeline(
                  3, /*overlap=*/false,
                  [&](size_t s) {
                    trace.push_back("A" + std::to_string(s));
                    return Status::OK();
                  },
                  [&](size_t s) {
                    trace.push_back("B" + std::to_string(s));
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(trace,
            (std::vector<std::string>{"A0", "B0", "A1", "B1", "A2", "B2"}));
}

TEST(OverlapTest, OverlapRunsNextSampleDuringCurrentTrain) {
  // Deadlock-free only if A(1) and B(0) genuinely run concurrently:
  // B(0) blocks until A(1) has started, and A(1) blocks until B(0) has
  // started. A serialized scheduler would hang (and trip the test
  // timeout); the overlap scheduler passes instantly.
  std::latch a1_started(1);
  std::latch b0_started(1);
  ASSERT_TRUE(RunStagePipeline(
                  2, /*overlap=*/true,
                  [&](size_t s) {
                    if (s == 1) {
                      a1_started.count_down();
                      b0_started.wait();
                    }
                    return Status::OK();
                  },
                  [&](size_t s) {
                    if (s == 0) {
                      b0_started.count_down();
                      a1_started.wait();
                    }
                    return Status::OK();
                  })
                  .ok());
}

TEST(OverlapTest, InFlightNeverExceedsBound) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  auto enter = [&](size_t) {
    const int now = in_flight.fetch_add(1) + 1;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    return Status::OK();
  };
  auto leave = [&](size_t) {
    in_flight.fetch_sub(1);
    return Status::OK();
  };
  // Stage A enters a shard into flight, stage B retires it: the in-flight
  // count spans each shard's full A->B window.
  ASSERT_TRUE(RunStagePipeline(8, /*overlap=*/true, enter, leave).ok());
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST(OverlapTest, FirstErrorWinsAndUnstartedShardsAreSkipped) {
  std::mutex mu;
  std::vector<size_t> started;
  const Status st = RunStagePipeline(
      100, /*overlap=*/true,
      [&](size_t s) -> Status {
        {
          std::lock_guard<std::mutex> lock(mu);
          started.push_back(s);
        }
        if (s == 0) return Status::Internal("shard 0 exploded");
        // The other worker would otherwise start all 99 trivial shards
        // in the microseconds between shard 0's failure and its report
        // whenever the failing thread is preempted there.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Status::OK();
      },
      [&](size_t) { return Status::OK(); });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shard 0 exploded"), std::string::npos);
  // Far fewer than 100 shards ever started: the failure stopped intake.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_LT(started.size(), 100u);
}

TEST(OverlapTest, SerialModeStopsAtFirstError) {
  std::vector<std::string> trace;
  const Status st = RunStagePipeline(
      3, /*overlap=*/false,
      [&](size_t s) {
        trace.push_back("A" + std::to_string(s));
        return Status::OK();
      },
      [&](size_t s) -> Status {
        trace.push_back("B" + std::to_string(s));
        if (s == 1) return Status::Internal("boom");
        return Status::OK();
      });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"A0", "B0", "A1", "B1"}));
}

TEST(OverlapTest, RejectsBadArguments) {
  auto ok = [](size_t) { return Status::OK(); };
  EXPECT_FALSE(RunStagePipeline(1, /*overlap=*/true, nullptr, ok).ok());
  EXPECT_FALSE(RunStagePipeline(1, /*overlap=*/true, ok, nullptr).ok());
  // Zero shards is a no-op, not an error.
  EXPECT_TRUE(RunStagePipeline(0, /*overlap=*/true, ok, ok).ok());
}

}  // namespace
}  // namespace privim
