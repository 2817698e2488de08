// Unit tests for the observability layer (src/obs): registry semantics,
// atomic-cell exactness under concurrency, histogram bucket edges,
// deterministic snapshot ordering, the disabled near-no-op path, and the
// trace sink's Chrome trace-event JSON. Runs under the TSan matrix — the
// concurrent cases are the data-race regression net for the atomic cells.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_helpers.h"

namespace {

using namespace eid;

/// Fresh registry values per test: the process registry is shared, so
/// every test works on its own uniquely named metrics and the fixture
/// only guarantees collection is on.
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::metrics().set_enabled(true); }
  void TearDown() override { obs::metrics().set_enabled(true); }
};

TEST_F(ObsMetricsTest, CounterAccumulatesAndFindsByName) {
  obs::Counter& counter = obs::metrics().counter("test_counter_basic_total");
  const std::uint64_t before = counter.value();
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), before + 42);
  // Same name -> same handle (find-or-register).
  EXPECT_EQ(&obs::metrics().counter("test_counter_basic_total"), &counter);
}

TEST_F(ObsMetricsTest, ConcurrentCounterIncrementsMergeExactly) {
  obs::Counter& counter = obs::metrics().counter("test_counter_mt_total");
  const std::uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  // Concurrent increments lose nothing: the value is the exact sum.
  EXPECT_EQ(counter.value(),
            before + static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsMetricsTest, GaugeSetAndAdd) {
  obs::Gauge& gauge = obs::metrics().gauge("test_gauge_value");
  gauge.set(7.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.5);
  gauge.add(-2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
}

TEST_F(ObsMetricsTest, HistogramBucketEdgesAreInclusive) {
  const double bounds[] = {0.1, 1.0, 10.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_histogram_edges", bounds);
  histogram.observe(0.1);   // exactly on an edge -> that bucket
  histogram.observe(0.05);  // below the first edge
  histogram.observe(1.0);   // exactly on the middle edge
  histogram.observe(5.0);
  histogram.observe(100.0);  // above every edge -> +Inf overflow

  const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
  const obs::HistogramSnapshot* found = nullptr;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "test_histogram_edges") found = &h;
  }
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->bounds.size(), 3u);
  ASSERT_EQ(found->buckets.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(found->buckets[0], 2u);      // 0.05, 0.1
  EXPECT_EQ(found->buckets[1], 1u);      // 1.0
  EXPECT_EQ(found->buckets[2], 1u);      // 5.0
  EXPECT_EQ(found->buckets[3], 1u);      // 100.0
  EXPECT_EQ(found->count, 5u);
  EXPECT_NEAR(found->sum, 106.15, 1e-9);
}

TEST_F(ObsMetricsTest, ConcurrentHistogramObservationsAndSnapshots) {
  const double bounds[] = {1.0, 2.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_histogram_mt", bounds);
  std::atomic<bool> stop{false};
  // Snapshot concurrently with observers: under TSan this is the race net
  // for the atomic cells and the registry mutex.
  std::thread snapshotter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
      (void)snapshot;
    }
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(0.5 + (i % 3));  // 0.5, 1.5, 2.5 — all 3 buckets
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsMetricsTest, DisabledMutationsAreDropped) {
  obs::Counter& counter = obs::metrics().counter("test_counter_off_total");
  obs::Gauge& gauge = obs::metrics().gauge("test_gauge_off");
  const double bounds[] = {1.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_histogram_off", bounds);
  gauge.set(3.0);
  const std::uint64_t counter_before = counter.value();
  const std::uint64_t histogram_before = histogram.count();

  obs::metrics().set_enabled(false);
  counter.add(100);
  gauge.set(99.0);
  histogram.observe(0.5);
  obs::metrics().set_enabled(true);

  EXPECT_EQ(counter.value(), counter_before);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  EXPECT_EQ(histogram.count(), histogram_before);
}

TEST_F(ObsMetricsTest, SnapshotIsSortedByName) {
  obs::metrics().counter("test_zz_order_total").add(1);
  obs::metrics().counter("test_aa_order_total").add(1);
  const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
  for (std::size_t i = 1; i < snapshot.gauges.size(); ++i) {
    EXPECT_LT(snapshot.gauges[i - 1].name, snapshot.gauges[i].name);
  }
  for (std::size_t i = 1; i < snapshot.histograms.size(); ++i) {
    EXPECT_LT(snapshot.histograms[i - 1].name, snapshot.histograms[i].name);
  }
}

TEST_F(ObsMetricsTest, PrometheusExpositionShape) {
  obs::metrics().counter("test_prom_counter_total").add(3);
  obs::metrics().gauge("test_prom_gauge").set(1.5);
  const double bounds[] = {0.5, 5.0};
  obs::Histogram& histogram =
      obs::metrics().histogram("test_prom_histogram", bounds);
  histogram.observe(0.25);
  histogram.observe(2.0);
  histogram.observe(50.0);

  const std::string text = obs::to_prometheus(obs::metrics().snapshot());
  EXPECT_NE(text.find("# TYPE test_prom_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_histogram histogram"),
            std::string::npos);
  // Cumulative buckets: le="0.5" covers 1, le="5" covers 2, +Inf all 3.
  EXPECT_NE(text.find("test_prom_histogram_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histogram_bucket{le=\"5\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histogram_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histogram_count 3"), std::string::npos);
}

TEST_F(ObsMetricsTest, JsonRenderingIsWellFormed) {
  obs::metrics().counter("test_json_counter_total").add(2);
  const double bounds[] = {1.0};
  obs::metrics().histogram("test_json_histogram", bounds).observe(0.5);
  const std::string json = obs::to_json(obs::metrics().snapshot());
  EXPECT_TRUE(test::json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"test_json_counter_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test_json_histogram\""), std::string::npos);
}

TEST_F(ObsMetricsTest, ResetValuesZeroesCells) {
  obs::Counter& counter = obs::metrics().counter("test_reset_total");
  counter.add(5);
  EXPECT_GT(counter.value(), 0u);
  obs::metrics().reset_values();
  EXPECT_EQ(counter.value(), 0u);
}

// ---- Trace sink ----

TEST(ObsTraceTest, SpansFromMultipleThreadsProduceValidChromeJson) {
  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  {
    const obs::TraceSpan outer("outer_stage", "test");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 8; ++i) {
          const obs::TraceSpan span("worker_stage", "test");
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  obs::set_trace_sink(nullptr);

  EXPECT_EQ(sink.event_count(), 4u * 8u + 1u);
  EXPECT_EQ(sink.dropped_events(), 0u);
  const std::string json = sink.to_chrome_json();
  EXPECT_TRUE(eid::test::json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer_stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObsTraceTest, NoSinkMeansNoRecording) {
  obs::set_trace_sink(nullptr);
  { const obs::TraceSpan span("unrecorded", "test"); }
  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  { const obs::TraceSpan span("recorded", "test"); }
  obs::set_trace_sink(nullptr);
  EXPECT_EQ(sink.event_count(), 1u);
}

TEST(ObsTraceTest, CapDropsExcessEventsAndCountsThem) {
  obs::TraceSink sink(/*max_events=*/2);
  obs::set_trace_sink(&sink);
  for (int i = 0; i < 5; ++i) {
    const obs::TraceSpan span("capped", "test");
  }
  obs::set_trace_sink(nullptr);
  EXPECT_EQ(sink.event_count(), 2u);
  EXPECT_EQ(sink.dropped_events(), 3u);
  EXPECT_TRUE(eid::test::json_well_formed(sink.to_chrome_json()));
  EXPECT_NE(sink.to_chrome_json().find("\"dropped_events\": 3"),
            std::string::npos);
}

TEST(ObsTraceTest, WriteChromeJsonRoundTrips) {
  obs::TraceSink sink;
  obs::set_trace_sink(&sink);
  { const obs::TraceSpan span("persisted", "test"); }
  obs::set_trace_sink(nullptr);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "eid_obs_trace_test.json";
  ASSERT_TRUE(sink.write_chrome_json(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(eid::test::json_well_formed(buffer.str()));
  EXPECT_NE(buffer.str().find("persisted"), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
