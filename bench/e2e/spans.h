// Bench-side spans around calls into the detector's public API. The bench
// records them itself, so a layer's time is measured at the boundary a
// user of that layer sees, not derived as "wall minus the other stages".
//
// Every span carries its name, start, end, the span that caused it and the
// day or tick it worked on. A span's self time is its duration minus the
// part of that interval its child spans cover; children may overlap each
// other (a day commit on a worker thread next to the next day's parse on
// the driving thread), so coverage is the union of their intervals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace e2e {

// One clock for every timer in the bench, so all measurements agree.
// It must be monotonic: time never decreases.
using WallClock = std::chrono::steady_clock;

inline double seconds(WallClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Span {
  const char* name = "";  ///< string literal
  WallClock::time_point start{};
  WallClock::time_point end{};
  int parent = -1;        ///< index of the causing span, -1 for a root
  std::int64_t unit = -1; ///< day or tick the span worked on, -1 for none
};

/// Thread-safe in-memory span list, written out when the run ends.
class SpanRecorder {
 public:
  int open(const char* name, int parent, std::int64_t unit) {
    const WallClock::time_point now = WallClock::now();
    std::lock_guard lock(mutex_);
    spans_.push_back(Span{name, now, now, parent, unit});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int index) {
    const WallClock::time_point now = WallClock::now();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = now;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
  }

  /// Per span name: total duration and total self time, in seconds, over
  /// the spans with index in [first, last). Call only while no span is open.
  std::map<std::string, std::pair<double, double>> totals(
      std::size_t first, std::size_t last) const {
    std::lock_guard lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = first; i < last; ++i) {
      const int parent = spans_[i].parent;
      if (parent >= 0) children[static_cast<std::size_t>(parent)].push_back(i);
    }
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = first; i < last; ++i) {
      const Span& span = spans_[i];
      std::vector<std::pair<WallClock::time_point, WallClock::time_point>> cover;
      for (const std::size_t c : children[i]) {
        const auto from = std::max(spans_[c].start, span.start);
        const auto to = std::min(spans_[c].end, span.end);
        if (from < to) cover.emplace_back(from, to);
      }
      std::sort(cover.begin(), cover.end());
      WallClock::duration covered{};
      WallClock::time_point reach = span.start;
      for (const auto& [from, to] : cover) {
        const auto begin = std::max(from, reach);
        if (to > begin) covered += to - begin;
        reach = std::max(reach, to);
      }
      auto& [total, self] = out[span.name];
      total += seconds(span.end - span.start);
      self += seconds(span.end - span.start - covered);
    }
    return out;
  }

  /// The spans as Chrome trace events (pid 2, beside the program's own
  /// obs::TraceSink spans on pid 1), on the obs::trace_now_us() timeline.
  std::string chrome_events() const {
    const auto epoch =
        WallClock::now() - std::chrono::microseconds(eid::obs::trace_now_us());
    const auto us = [&epoch](WallClock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::microseconds>(t - epoch)
              .count());
    };
    std::lock_guard lock(mutex_);
    std::string out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (!out.empty()) out += ",\n";
      out += "  {\"name\": \"" + std::string(span.name) +
             "\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": " +
             std::to_string(us(span.start)) +
             ", \"dur\": " + std::to_string(us(span.end) - us(span.start)) +
             ", \"pid\": 2, \"tid\": 1, \"args\": {\"id\": " +
             std::to_string(i) + ", \"parent\": " +
             std::to_string(span.parent) +
             ", \"unit\": " + std::to_string(span.unit) + "}}";
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing (the untraced runs).
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, int parent,
        std::int64_t unit = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, parent, unit) : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace e2e
