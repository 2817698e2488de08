// Persistent worker pool behind the day-analysis engine.
//
// Spawning threads per stage would pay the spawn/join cost hundreds of
// times per day at enterprise volume. The Executor keeps a fixed set of
// long-lived workers — spawned once, parked on a condition variable when
// idle, fed through per-worker single-consumer ring queues — and exposes a
// deterministic range-fan-out contract: partitions come from
// util::detail::partition_ranges, i.e. they depend only on (n, n_threads)
// and never on scheduling or worker availability, so per-range slot
// writers are bit-identical for every pool size, including none.
//
// Two entry points:
//
//   * parallel_ranges(n, n_threads, fn) — blocking fan-out. The calling
//     thread runs range 0 (and any ranges the pool cannot take) while the
//     workers run the rest; returns after every range finished. A nested
//     call from a worker thread runs all ranges inline (same partition,
//     ascending order), so tasks may freely use parallel helpers without
//     deadlocking the pool.
//
//   * submit(task) — run one long task (a day's finalize/score/commit
//     stage in the pipelined multi-day path) on a worker and return a
//     TaskHandle; wait() blocks until completion and rethrows anything the
//     task threw. The chosen worker is marked long-busy so concurrent
//     fan-outs route around it instead of queueing behind a whole day.
//
// Thread-safety: any thread may call parallel_ranges/submit concurrently
// (producers to one worker serialize on a small mutex; each ring has
// exactly one consumer). The destructor drains queued work, then joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace.h"
#include "util/parallel.h"

namespace eid::util {

class Executor {
 public:
  /// Completion handle for one submit()ted task. wait() blocks until the
  /// task finished and rethrows its exception, if any. Destroying a handle
  /// without waiting is safe — the task still runs to completion. Once
  /// wait() returns, the task object and everything it captured have been
  /// destroyed (so a capture may hold, e.g., the last non-caller reference
  /// to shared state without racing the waiter's teardown).
  class TaskHandle {
   public:
    TaskHandle() = default;

    bool valid() const { return state_ != nullptr; }

    void wait() {
      if (!state_) return;
      std::unique_lock lock(state_->mutex);
      state_->cv.wait(lock, [&] { return state_->done; });
      const std::exception_ptr error = state_->error;
      lock.unlock();
      state_ = nullptr;
      if (error) std::rethrow_exception(error);
    }

    /// Implementation detail shared with the worker side.
    struct State {
      std::mutex mutex;
      std::condition_variable cv;
      bool done = false;
      std::exception_ptr error;
    };

   private:
    friend class Executor;
    explicit TaskHandle(std::shared_ptr<State> state)
        : state_(std::move(state)) {}

    std::shared_ptr<State> state_;
  };

  /// Spawns `n_workers` long-lived threads (0 is valid: every call runs
  /// inline, useful as a sequential stand-in).
  explicit Executor(std::size_t n_workers);

  /// Drains queued tasks, then stops and joins every worker — submitted
  /// work is never dropped on shutdown.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// True when the calling thread is one of this executor's workers.
  bool on_worker_thread() const;

  /// Run fn(range_index, begin, end) over [0, n) split into up to
  /// n_threads contiguous ranges — the partition of util::for_each_range
  /// (size slots with util::range_count). fn must
  /// only touch state owned by its range. Blocks until all ranges are
  /// done; the first exception thrown by any range is rethrown here.
  template <typename Fn>
  void parallel_ranges(std::size_t n, std::size_t n_threads, Fn&& fn) {
    const auto [chunk, ranges] = detail::partition_ranges(n, n_threads);
    if (ranges == 0) return;
    if (ranges == 1 || workers_.empty() || on_worker_thread()) {
      // Inline (and for nested worker-side calls: sequential, ascending) —
      // identical ranges, identical results.
      for_each_range(n, n_threads, fn);
      return;
    }
    const obs::TraceSpan span("executor_fan_out", "executor");
    FanOut block;
    block.fn = &fn;
    block.chunk = chunk;
    block.n = n;
    block.run = [](FanOut& b, std::size_t w) {
      auto& f = *static_cast<std::remove_reference_t<Fn>*>(b.fn);
      const std::size_t begin = w * b.chunk;
      f(w, begin, std::min(begin + b.chunk, b.n));
    };
    // Hand ranges 1..ranges-1 to the pool (as many as fit); the caller
    // covers range 0 plus whatever the pool could not take, then waits.
    const std::size_t queued = dispatch_fan_out(block, ranges - 1);
    const auto run_local = [&](std::size_t w) {
      const std::size_t begin = w * chunk;
      try {
        fn(w, begin, std::min(begin + chunk, n));
      } catch (...) {
        std::lock_guard lock(block.mutex);
        if (!block.error) block.error = std::current_exception();
      }
    };
    for (std::size_t w = queued + 1; w < ranges; ++w) run_local(w);
    run_local(0);
    wait_fan_out(block);
    if (block.error) std::rethrow_exception(block.error);
  }

  /// Run `task` on one worker (least-loaded by long tasks); inline when the
  /// pool is empty, saturated, or the caller is itself a worker.
  TaskHandle submit(std::function<void()> task);

  /// Tasks handed to pool workers so far (fan-out ranges + submits) —
  /// observability for tests asserting the pool, not spawning, does the
  /// work.
  std::uint64_t tasks_dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

 private:
  /// Control block of one in-flight parallel_ranges call; lives on the
  /// caller's stack, so workers must never touch it after the final
  /// decrement-and-notify (done under `mutex` for exactly that reason).
  struct FanOut {
    void (*run)(FanOut&, std::size_t) = nullptr;
    void* fn = nullptr;
    std::size_t chunk = 0;
    std::size_t n = 0;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;  ///< guarded by mutex
    std::exception_ptr error;
  };

  struct RawTask {
    void (*run)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t arg = 0;
    /// trace_now_us() at enqueue when metrics were enabled, else 0 —
    /// feeds the eid_executor_dispatch_latency_seconds histogram.
    std::uint64_t enqueue_us = 0;
  };

  struct Worker;

  static void fan_out_entry(void* ctx, std::size_t range);
  std::size_t dispatch_fan_out(FanOut& block, std::size_t count);
  static void wait_fan_out(FanOut& block);
  bool try_push(Worker& worker, RawTask task);
  void worker_loop(Worker& worker);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::size_t> next_worker_{0};
  /// Tasks pushed but not yet picked up, pool-wide — the
  /// eid_executor_queue_depth gauge.
  std::atomic<std::int64_t> queued_{0};
};

/// Dispatch helper for call sites with an optional pool: fan out on
/// `executor` when one is wired up, otherwise run the same ranges inline
/// in ascending order. Same partition, same results, either way.
template <typename Fn>
void parallel_ranges(Executor* executor, std::size_t n, std::size_t n_threads,
                     Fn&& fn) {
  if (executor != nullptr) {
    executor->parallel_ranges(n, n_threads, std::forward<Fn>(fn));
  } else {
    for_each_range(n, n_threads, std::forward<Fn>(fn));
  }
}

}  // namespace eid::util
