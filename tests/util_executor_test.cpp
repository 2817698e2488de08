// util::Executor — the persistent worker pool. The contract under test:
// identical fan-out partitions (and therefore identical results) to the
// inline no-executor path for every pool size, a draining destructor that
// never drops submitted work, and exception propagation from both entry
// points.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/executor.h"

namespace eid::util {
namespace {

// Fill one slot per index, tagged with the owning range — any scheduling
// dependence would disagree with the inline reference below.
std::vector<std::size_t> fan_out_slots(Executor* executor, std::size_t n,
                                       std::size_t n_threads) {
  std::vector<std::size_t> slots(n, 0);
  parallel_ranges(executor, n, n_threads,
                  [&](std::size_t range, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      slots[i] = 1000 * range + i;
                    }
                  });
  return slots;
}

TEST(ExecutorTest, MatchesInlinePartitionForAnyPoolSize) {
  const std::size_t n = 103;
  for (const std::size_t n_threads : {1u, 2u, 3u, 8u}) {
    const auto reference = fan_out_slots(nullptr, n, n_threads);
    for (const std::size_t workers : {0u, 1u, 2u, 7u}) {
      Executor executor(workers);
      EXPECT_EQ(fan_out_slots(&executor, n, n_threads), reference)
          << workers << " workers, " << n_threads << " threads";
    }
  }
}

TEST(ExecutorTest, PoolServesRepeatedRounds) {
  Executor executor(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    executor.parallel_ranges(64, 8,
                             [&](std::size_t, std::size_t begin,
                                 std::size_t end) {
                               sum.fetch_add(static_cast<int>(end - begin));
                             });
    EXPECT_EQ(sum.load(), 64);
    Executor::TaskHandle handle = executor.submit([] {});
    handle.wait();
  }
  EXPECT_GT(executor.tasks_dispatched(), 0u);
}

TEST(ExecutorTest, DestructorDrainsPendingSubmits) {
  std::atomic<int> completed{0};
  {
    Executor executor(2);
    for (int i = 0; i < 8; ++i) {
      executor.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        completed.fetch_add(1);
      });
    }
    // Handles dropped; the destructor must still run every queued task.
  }
  EXPECT_EQ(completed.load(), 8);
}

TEST(ExecutorTest, FanOutPropagatesWorkerException) {
  Executor executor(3);
  const auto throwing = [&] {
    executor.parallel_ranges(40, 4,
                             [](std::size_t range, std::size_t, std::size_t) {
                               if (range == 2) {
                                 throw std::runtime_error("range 2 failed");
                               }
                             });
  };
  EXPECT_THROW(throwing(), std::runtime_error);
  // The pool survives a failed fan-out.
  EXPECT_EQ(fan_out_slots(&executor, 10, 2), fan_out_slots(nullptr, 10, 2));
}

TEST(ExecutorTest, SubmitPropagatesExceptionThroughWait) {
  Executor executor(1);
  Executor::TaskHandle handle =
      executor.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(handle.wait(), std::runtime_error);
  // A waited (or default) handle is inert.
  EXPECT_FALSE(handle.valid());
  handle.wait();
}

// The pipelined day commit captures objects that themselves reference the
// pool (a DayGraph holds the pipeline's executor shared_ptr). wait()
// guarantees those captures are gone before it returns, so releasing the
// caller's own executor reference right after wait() must never leave the
// last reference on the worker — which would run ~Executor on its own
// worker thread (a self-join). Regression for exactly that shutdown race.
TEST(ExecutorTest, WaitedTaskCapturesAreDestroyedBeforeWaitReturns) {
  for (int round = 0; round < 100; ++round) {
    auto executor = std::make_shared<Executor>(1);
    Executor::TaskHandle handle = executor->submit([executor] {});
    handle.wait();
    executor.reset();  // must be the caller-side ~Executor, every time
  }
}

TEST(ExecutorTest, NestedFanOutFromWorkerRunsInline) {
  Executor executor(2);
  std::vector<std::size_t> outer;
  Executor::TaskHandle handle = executor.submit([&] {
    EXPECT_TRUE(executor.on_worker_thread());
    outer = fan_out_slots(&executor, 37, 8);  // must not deadlock the pool
  });
  handle.wait();
  EXPECT_EQ(outer, fan_out_slots(nullptr, 37, 8));
}

TEST(ExecutorTest, ZeroWorkerPoolRunsEverythingInline) {
  Executor executor(0);
  EXPECT_EQ(executor.worker_count(), 0u);
  EXPECT_FALSE(executor.on_worker_thread());
  EXPECT_EQ(fan_out_slots(&executor, 9, 4), fan_out_slots(nullptr, 9, 4));
  bool ran = false;
  Executor::TaskHandle handle = executor.submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // inline: done before submit returned
  handle.wait();
}

TEST(ExecutorTest, ConcurrentFanOutsFromManyThreads) {
  Executor executor(3);
  std::vector<std::thread> callers;
  std::vector<long> sums(4, 0);
  for (std::size_t c = 0; c < sums.size(); ++c) {
    callers.emplace_back([&executor, &sums, c] {
      for (int round = 0; round < 25; ++round) {
        std::vector<long> slots(50, 0);
        executor.parallel_ranges(
            slots.size(), 4,
            [&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) {
                slots[i] = static_cast<long>(i);
              }
            });
        sums[c] += std::accumulate(slots.begin(), slots.end(), 0L);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (const long sum : sums) EXPECT_EQ(sum, 25L * (49 * 50 / 2));
}

}  // namespace
}  // namespace eid::util
