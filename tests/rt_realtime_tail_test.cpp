// Live-tail integration: a RealTimeClock-driven ContinuousEngine following
// a TSV file that another thread is still writing — the
// `enterprise_monitor --follow` deployment in miniature. The engine must
// pick up appended lines across polls, close wall-clock ticks while the
// log is quiet, and close the day with a complete report at shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/detector.h"
#include "api/sources.h"
#include "logs/io.h"
#include "rt/clock.h"
#include "rt/engine.h"
#include "test_helpers.h"

namespace eid::rt {
namespace {

constexpr util::Day kDay = 16200;
constexpr int kLines = 6;

logs::DnsRecord dns_record(util::TimePoint ts, int i) {
  logs::DnsRecord rec;
  rec.ts = ts;
  rec.src = "host" + std::to_string(i % 3);
  rec.domain = "live" + std::to_string(i) + ".example.net";
  rec.type = logs::DnsType::A;
  return rec;
}

TEST(RealTimeTailTest, FollowsALiveWriterAndClosesTheDay) {
  const auto dir = std::filesystem::temp_directory_path() / "eid_rt_tail_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "live-dns.tsv";
  std::filesystem::remove(path);

  test::MapWhois whois;
  // Depth 2 so the final day close runs pipelined: finish_day/report_day on
  // an executor worker, history commit at the finish() join — the live-tail
  // deployment shape for the async close path.
  core::PipelineConfig pipeline_config;
  pipeline_config.parallelism =
      core::Parallelism{.threads = 2, .pipeline_depth = 2};
  api::Detector detector(pipeline_config, whois);

  // Sim time = wall time, anchored at the start of the tailed day; 1 s
  // ticks so the loop below closes several of them while it runs.
  RealTimeClock clock(util::day_start(kDay));
  EngineConfig config;
  config.window.tick_seconds = 1;
  ContinuousEngine engine(detector, clock, config);

  api::TsvFileSource source(path, kDay, logs::DnsReductionConfig{});
  source.set_tail(true);

  // The writer starts after the first polls, so the engine also exercises
  // the file-appears-later retry; each line is flushed as it lands.
  std::thread writer([&path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::ofstream out(path, std::ios::app);
    const util::TimePoint base = util::day_start(kDay);
    for (int i = 0; i < kLines; ++i) {
      out << logs::format_dns_line(dns_record(base + 100 + i, i)) << '\n'
          << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    engine.poll(source);
    engine.advance();  // wall-clock ticks close even while the log is quiet
    if (engine.stats().events == kLines && engine.stats().ticks_closed > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  writer.join();
  engine.poll(source);  // anything the writer flushed after our last poll
  engine.finish();

  EXPECT_EQ(source.stats().parsed, static_cast<std::size_t>(kLines));
  EXPECT_EQ(source.stats().malformed, 0u);
  EXPECT_EQ(engine.stats().events, static_cast<std::size_t>(kLines));
  EXPECT_GT(engine.stats().ticks_closed, 0u);
  EXPECT_EQ(engine.stats().days_closed, 1u);
  ASSERT_EQ(engine.day_reports().size(), 1u);
  EXPECT_EQ(detector.days_operated(), 1u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eid::rt
