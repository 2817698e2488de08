// Scoped-span tracing emitted as Chrome trace-event JSON — load the
// written file in Perfetto (ui.perfetto.dev) or chrome://tracing to see
// every pipeline stage, rt tick and state save/load laid out on a
// per-thread timeline.
//
// One process-wide sink pointer (obs::set_trace_sink) mirrors the metrics
// registry's default-instance design: instrumented call sites construct a
// TraceSpan unconditionally, and when no sink is installed the span is a
// single relaxed atomic load — no clock read, no allocation. Recording a
// span appends one complete ("ph":"X") event under the sink's mutex;
// spans are stage/chunk-grained (never per event), so the lock is cold.
//
// Tracing is a pure side channel like the metrics registry: enabling it
// never changes a DayReport (determinism_test / rt_continuous_test run
// the sweeps with a sink installed and byte-compare the reports).
//
// The sink caps its event buffer (default 1M spans ≈ a day of 5-minute
// ticks plus per-chunk stages at enterprise volume); once full, further
// spans are counted in dropped_events() instead of growing without bound
// in a long-lived --follow process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace eid::obs {

class TraceSink {
 public:
  explicit TraceSink(std::size_t max_events = 1'000'000)
      : max_events_(max_events) {}

  /// Append one complete ("X") event. ts/dur in microseconds on the
  /// process-steady timeline (trace_now_us()); tid is the caller's small
  /// thread id. Thread-safe.
  void record_complete(const char* name, const char* category,
                       std::uint64_t ts_us, std::uint64_t dur_us);

  std::size_t event_count() const;
  std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace-event JSON (object form: {"traceEvents": [...], ...}).
  std::string to_chrome_json() const;

  /// Write to_chrome_json() atomically (tmp + rename), so a viewer or
  /// uploader never reads a torn file. Returns false on I/O failure.
  bool write_chrome_json(const std::filesystem::path& path) const;

  void clear();

 private:
  struct Event {
    const char* name;      ///< static string (instrumentation literals)
    const char* category;  ///< static string
    std::uint64_t ts_us;
    std::uint64_t dur_us;
    std::uint32_t tid;
  };

  std::size_t max_events_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Install (or clear, with nullptr) the process-wide sink. Swap only while
/// no spans are live — in-flight spans record to the sink they captured at
/// construction.
void set_trace_sink(TraceSink* sink);
TraceSink* trace_sink();

/// Microseconds since process start on the steady clock — the trace
/// timeline.
std::uint64_t trace_now_us();

/// Small dense id of the calling thread (Perfetto's track key).
std::uint32_t trace_thread_id();

/// RAII span: records [construction, destruction) as one complete event
/// when a sink was installed at construction. `name` and `category` must
/// be string literals (or otherwise outlive the sink).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "pipeline")
      : sink_(trace_sink()), name_(name), category_(category) {
    if (sink_ != nullptr) start_us_ = trace_now_us();
  }

  ~TraceSpan() {
    if (sink_ == nullptr) return;
    const std::uint64_t end_us = trace_now_us();
    sink_->record_complete(name_, category_, start_us_,
                           end_us > start_us_ ? end_us - start_us_ : 0);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSink* sink_;
  const char* name_;
  const char* category_;
  std::uint64_t start_us_ = 0;
};

}  // namespace eid::obs
