// Incremental window re-scoring (rt/window.h + graph::DayGraph::absorb):
// the engine's default tick evaluation merges cached per-bucket partial
// graphs instead of re-ingesting the window's raw events. These tests pin
// the equivalence contract from both ends:
//
//   * window-level — the merged partials finalize bit-identical to a
//     sequential ingest of the same event sequence, across sealing,
//     merge extension, window slide, empty-tick gaps and out-of-order
//     appends into already-sealed buckets (the invalidation path);
//   * engine-level — a full continuous run produces the same day reports
//     AND the same provisional/finalized emission sequence, field for
//     field, as a batch reference that re-analyzes the arrival prefix with
//     the pipeline's day verbs at every evaluated tick, for every tick
//     size × thread count × pipeline depth, and regardless
//     of how chunks straddle tick boundaries.
#include "rt/window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/incidents.h"
#include "core/report_json.h"
#include "rt/engine.h"
#include "test_helpers.h"

namespace eid::rt {
namespace {

using test::DayBuilder;
using test::MapWhois;

constexpr util::Day kDay = 16100;

// ---------------------------------------------------------------------------
// Window-level equivalence: merged partials vs sequential ingest.
// ---------------------------------------------------------------------------

/// Full structural serialization of a finalized graph — every id, name,
/// edge payload and IP row in deterministic order. Two graphs with equal
/// signatures are observably identical.
std::string graph_signature(const graph::DayGraph& graph) {
  std::ostringstream out;
  out << "hosts:";
  for (graph::HostId h = 0; h < graph.host_count(); ++h) {
    out << graph.host_name(h) << ',';
  }
  out << "\ndomains:";
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    out << graph.domain_name(d) << ',';
  }
  out << '\n';
  graph.for_each_edge([&](graph::HostId h, graph::DomainId d,
                          const graph::EdgeData& e) {
    out << graph.host_name(h) << "->" << graph.domain_name(d) << " t=";
    for (const util::TimePoint t : e.times) out << t << ',';
    out << " ua=";
    for (const graph::UaId ua : e.user_agents) out << graph.ua_name(ua) << ',';
    out << " ref=" << e.any_referer << " noua=" << e.any_empty_ua << '\n';
  });
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    out << "ips " << graph.domain_name(d) << ":";
    for (const util::Ipv4 ip : graph.domain_ips(d)) out << ip.value << ',';
    out << '\n';
  }
  return out.str();
}

/// Sequential-ingest baseline over `events` in order.
std::string sequential_signature(const std::vector<logs::ConnEvent>& events) {
  graph::DayGraph graph;
  for (const auto& ev : events) graph.add_event(ev);
  graph.finalize();
  return graph_signature(graph);
}

/// A varied event mix inside one tick: repeat edges, distinct UAs, IPs,
/// empty-UA and referer flags, interleaved hosts.
std::vector<logs::ConnEvent> tick_events(std::int64_t tick, int salt) {
  DayBuilder builder;
  const util::TimePoint base = tick * 300;
  for (int i = 0; i < 8; ++i) {
    const std::string host = "h" + std::to_string((i + salt) % 3);
    const std::string domain = "d" + std::to_string((i * 7 + salt) % 5) + ".com";
    builder.visit(host, domain, base + 10 + i * 13,
                  util::Ipv4::from_octets(10, 0, salt % 250, i),
                  i % 3 == 0 ? "" : "UA" + std::to_string(i % 2), i % 2 == 0);
  }
  builder.visit("h9", "shared.com", base + 200, {0}, "UA0", false);
  return builder.events();
}

WindowConfig small_window() {
  WindowConfig config;
  config.tick_seconds = 300;
  config.window_seconds = 1200;  // 4 ticks
  return config;
}

WindowAccumulator make_window(const WindowConfig& config = small_window()) {
  WindowAccumulator window(config);
  window.set_partial_factory([] { return graph::DayGraph(); });
  return window;
}

void append_all(WindowAccumulator& window,
                const std::vector<logs::ConnEvent>& events) {
  for (const auto& ev : events) {
    window.append(ev, window.config().tick_of(ev.ts), util::day_of(ev.ts));
  }
}

// Sealing a bucket moves its events from the raw buffer into the cached
// partial and releases the raw storage — the memory fix behind the
// rt_peak_buffered_events bench assertion.
TEST(RtIncrementalTest, SealReleasesRawEvents) {
  WindowAccumulator window = make_window();
  const auto events = tick_events(0, 1);
  append_all(window, events);
  EXPECT_EQ(window.buffered_events(), events.size());
  EXPECT_EQ(window.cached_events(), 0u);

  const auto view = window.merge_window(0);
  ASSERT_NE(view.graph, nullptr);
  EXPECT_EQ(view.events, events.size());
  EXPECT_EQ(window.buffered_events(), 0u);
  EXPECT_EQ(window.cached_events(), events.size());
  EXPECT_EQ(window.cache_stats().buckets_sealed, 1u);
  EXPECT_EQ(window.window_events(0), events.size());
}

// Tick after tick over a sliding window: while the front is unchanged the
// running merge only absorbs the newly sealed bucket (extend); when the
// window slides it rebuilds from the cached partials. Every tick's merged
// snapshot must be bit-identical to sequentially ingesting the in-window
// events.
TEST(RtIncrementalTest, MergeMatchesSequentialAcrossSlide) {
  WindowAccumulator window = make_window();
  std::vector<std::vector<logs::ConnEvent>> per_tick;
  for (std::int64_t tick = 0; tick < 7; ++tick) {
    per_tick.push_back(tick_events(tick, static_cast<int>(tick) + 1));
    append_all(window, per_tick.back());

    const auto view = window.merge_window(tick);
    ASSERT_NE(view.graph, nullptr);
    const graph::DayGraph snap =
        view.graph->finalize_snapshot(1, view.snapshot_cache);

    std::vector<logs::ConnEvent> in_window;
    const std::int64_t first_live =
        tick - window.config().window_ticks() + 1;
    std::size_t expected_events = 0;
    for (std::int64_t t = std::max<std::int64_t>(0, first_live); t <= tick;
         ++t) {
      for (const auto& ev : per_tick[static_cast<std::size_t>(t)]) {
        in_window.push_back(ev);
        ++expected_events;
      }
    }
    EXPECT_EQ(view.events, expected_events);
    EXPECT_EQ(graph_signature(snap), sequential_signature(in_window));
    window.expire(tick);
    window.close_day(util::day_of(tick * 300));
  }
  // 4-tick window over 7 ticks: the first 4 evaluations share one front
  // (1 rebuild + 3 extends), each slide afterwards rebuilds.
  EXPECT_EQ(window.cache_stats().merge_rebuilds, 4u);
  EXPECT_EQ(window.cache_stats().merge_extends, 3u);
  EXPECT_EQ(window.cache_stats().invalidations, 0u);
}

// Quiet ticks leave no bucket behind; the merge must skip the gap and the
// result must still equal the sequential ingest of what exists.
TEST(RtIncrementalTest, EmptyTickGapsAreSkipped) {
  WindowAccumulator window = make_window();
  const auto first = tick_events(0, 1);
  const auto later = tick_events(3, 2);  // ticks 1 and 2 stay empty
  append_all(window, first);
  ASSERT_NE(window.merge_window(0).graph, nullptr);
  append_all(window, later);

  const auto view = window.merge_window(3);
  ASSERT_NE(view.graph, nullptr);
  std::vector<logs::ConnEvent> all = first;
  all.insert(all.end(), later.begin(), later.end());
  EXPECT_EQ(view.events, all.size());
  EXPECT_EQ(graph_signature(view.graph->finalize_snapshot(1, view.snapshot_cache)),
            sequential_signature(all));
  // The gap produced no buckets, so the merge extended across it.
  EXPECT_EQ(window.cache_stats().merge_rebuilds, 1u);
  EXPECT_EQ(window.cache_stats().merge_extends, 1u);
}

// An append that lands behind an already-evaluated tick goes into the
// sealed bucket's partial (at its end-of-bucket arrival position) and
// invalidates the running merge, which must rebuild from the cached
// partials and match the sequential ingest of the effective order.
TEST(RtIncrementalTest, LateAppendIntoSealedBucketInvalidates) {
  WindowAccumulator window = make_window();
  const auto batch = tick_events(2, 3);
  append_all(window, batch);
  ASSERT_NE(window.merge_window(2).graph, nullptr);
  EXPECT_EQ(window.buffered_events(), 0u);

  // Same tick, arrives after the evaluation — a new edge and a new host.
  DayBuilder late_builder;
  late_builder.visit("late-host", "late.com", 2 * 300 + 299,
                     util::Ipv4::from_octets(10, 9, 9, 9), "LateUA", true);
  const logs::ConnEvent late = late_builder.events()[0];
  window.append(late, 2, util::day_of(late.ts));
  EXPECT_EQ(window.cache_stats().invalidations, 1u);
  EXPECT_EQ(window.buffered_events(), 0u);  // went into the partial directly

  const auto view = window.merge_window(2);
  ASSERT_NE(view.graph, nullptr);
  std::vector<logs::ConnEvent> effective = batch;
  effective.push_back(late);
  EXPECT_EQ(view.events, effective.size());
  EXPECT_EQ(graph_signature(view.graph->finalize_snapshot(1, view.snapshot_cache)),
            sequential_signature(effective));
  EXPECT_EQ(window.cache_stats().merge_rebuilds, 2u);  // initial + invalidated
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: the engine vs a batch reference.
// ---------------------------------------------------------------------------

std::vector<logs::ConnEvent> browsing_day(util::Day day) {
  DayBuilder builder;
  const util::TimePoint base = util::day_start(day);
  for (int h = 0; h < 12; ++h) {
    for (int d = 0; d < 6; ++d) {
      builder.visit("h" + std::to_string(h), "pop" + std::to_string(d) + ".com",
                    base + 1000 + h * 50 + d, {0}, "CommonUA", true);
    }
  }
  return builder.events();
}

std::vector<logs::ConnEvent> campaign_day(util::Day day, MapWhois& whois) {
  const util::TimePoint base = util::day_start(day);
  auto events = browsing_day(day);
  DayBuilder extra;
  whois.add("evil-cc.ru", day - 3, day + 40);
  whois.add("evil-drop.ru", day - 4, day + 40);
  extra.visit("h5", "evil-drop.ru", base + 1990,
              util::Ipv4::from_octets(198, 51, 100, 7), "", false);
  extra.beacon("h5", "evil-cc.ru", base + 2040, 600, 40,
               util::Ipv4::from_octets(198, 51, 100, 9), "");
  whois.add("ioc-domain.ru", day - 10, day + 30);
  whois.add("related.ru", day - 9, day + 30);
  extra.visit("h6", "ioc-domain.ru", base + 3000,
              util::Ipv4::from_octets(198, 51, 100, 20), "", false);
  extra.visit("h6", "related.ru", base + 3030,
              util::Ipv4::from_octets(198, 51, 100, 21), "", false);
  for (const auto& ev : extra.events()) events.push_back(ev);
  return events;
}

struct TrainingDay {
  util::Day day = 0;
  std::vector<logs::ConnEvent> events;
};

std::vector<TrainingDay> training_days(MapWhois& whois,
                                       std::set<std::string>& reported) {
  std::vector<TrainingDay> days;
  for (int i = 0; i < 10; ++i) {
    const util::Day day = kDay - 2;
    const util::TimePoint base = util::day_start(day);
    auto events = browsing_day(day);
    DayBuilder extra;
    const std::string bad = "bad" + std::to_string(i) + ".ru";
    const std::string good = "updates" + std::to_string(i) + ".com";
    whois.add(bad, day - 5, day + 60);
    whois.add(good, day - 900, day + 900);
    reported.insert(bad);
    extra.beacon("h1", bad, base + 2000, 600, 40,
                 util::Ipv4::from_octets(203, 0, 113, 5), "");
    extra.beacon("h2", good, base + 2500, 900, 30,
                 util::Ipv4::from_octets(8, 8, 4, 4), "CommonUA");
    const std::string drop = "drop" + std::to_string(i) + ".ru";
    whois.add(drop, day - 6, day + 60);
    reported.insert(drop);
    extra.visit("h1", drop, base + 1985,
                util::Ipv4::from_octets(203, 0, 113, 9), "", false);
    const std::string blog = "blog" + std::to_string(i) + ".com";
    whois.add(blog, day - 800, day + 900);
    extra.visit("h1", blog, base + 30000,
                util::Ipv4::from_octets(9, 9, 9, 9), "CommonUA", true);
    for (const auto& ev : extra.events()) events.push_back(ev);
    days.push_back(TrainingDay{day, std::move(events)});
  }
  return days;
}

api::Detector trained_detector(MapWhois& whois, const core::LabelFn& intel,
                               const std::vector<TrainingDay>& train,
                               std::size_t threads, std::size_t depth = 1) {
  core::PipelineConfig config;
  config.ua_rare_threshold = 3;
  config.parallelism.threads = threads;
  config.parallelism.pipeline_depth = depth;
  api::Detector detector(config, whois);
  for (const util::Day day : {kDay - 4, kDay - 3}) {
    api::VectorSource source(day, browsing_day(day));
    detector.ingest(source);
  }
  for (const auto& day : train) {
    api::VectorSource source(day.day, &day.events);
    detector.ingest(source, intel);
  }
  detector.finalize_training();
  return detector;
}

core::SocSeeds soc_seeds() {
  core::SocSeeds seeds;
  seeds.domains = {"ioc-domain.ru"};
  return seeds;
}

/// Full serialization of a continuous run's observable output: every day
/// report plus every emission, field for field, in order.
std::string report_fingerprint(const ContinuousReport& report) {
  std::ostringstream out;
  for (const core::DayReport& day : report.days) {
    out << core::day_report_to_json(day) << '\n';
  }
  for (const IncidentEmission& e : report.emissions) {
    out << e.incident_id << '|' << e.provisional << '|' << e.new_incident
        << '|' << e.day << '|' << e.event_time << '|' << e.emission_time << '|'
        << e.latency_seconds << '|';
    for (const std::string& d : e.domains) out << d << ',';
    out << '|';
    for (const std::string& h : e.hosts) out << h << ',';
    out << '\n';
  }
  return out.str();
}

/// Earliest first contact with any of `names` in the analyzed graph (0 when
/// none appear) — the evidence time the engine stamps on an emission.
util::TimePoint earliest_contact(const core::DayAnalysis& analysis,
                                 std::span<const std::string> names) {
  util::TimePoint earliest = 0;
  for (const auto& name : names) {
    const graph::DomainId domain = analysis.graph.find_domain(name);
    if (domain == graph::kNoId) continue;
    for (const graph::HostId host : analysis.graph.domain_hosts(domain)) {
      const auto contact = analysis.graph.first_contact(host, domain);
      if (contact && (earliest == 0 || *contact < earliest)) earliest = *contact;
    }
  }
  return earliest;
}

/// The engine's emission rule, applied to batch results: provisional
/// evaluations announce only never-emitted domains; the day close always
/// refreshes the incident store but announces only novelty.
class NoveltyFilter {
 public:
  void emit(const core::DayAnalysis& analysis,
            const std::vector<std::string>& domains,
            const std::vector<std::string>& hosts, bool provisional,
            util::TimePoint emission_time, util::Day day,
            std::vector<IncidentEmission>& out) {
    if (domains.empty() && hosts.empty()) return;
    std::vector<std::string> fresh;
    for (const auto& name : domains) {
      if (!emitted_.contains(name)) fresh.push_back(name);
    }
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    if (provisional && fresh.empty()) return;
    const util::TimePoint event_time =
        earliest_contact(analysis, fresh.empty() ? domains : fresh);
    const bool grew = incidents_.touches(domains, hosts);
    const int id = incidents_.ingest_community(day, domains, hosts, event_time);
    emitted_.insert(fresh.begin(), fresh.end());
    if (fresh.empty()) return;
    IncidentEmission emission;
    emission.incident_id = id;
    emission.provisional = provisional;
    emission.new_incident = !grew;
    emission.day = day;
    emission.event_time = event_time;
    emission.emission_time = emission_time;
    emission.latency_seconds = event_time == 0 ? 0 : emission_time - event_time;
    emission.domains = std::move(fresh);
    emission.hosts = hosts;
    out.push_back(std::move(emission));
  }

 private:
  core::IncidentStore incidents_;
  std::set<std::string> emitted_;
};

/// What the continuous engine must produce for one day replayed through a
/// ReplayClock at `tick` seconds: walk the events in arrival order, and
/// whenever the high-water tick advances past a tick holding new events,
/// analyze the arrival prefix from scratch with the batch day verbs
/// (begin_day / add_chunk / finish_day → detect_cc → run_bp_nohint). The
/// day-long window always covers the whole prefix. The day closes with
/// batch run_day.
ContinuousReport batch_reference(api::Detector& detector,
                                 const std::vector<logs::ConnEvent>& events,
                                 util::Day day, std::int64_t tick) {
  WindowConfig window;
  window.tick_seconds = tick;
  const core::Pipeline& pipeline = detector.pipeline();
  NoveltyFilter filter;
  ContinuousReport out;
  util::TimePoint high_water = 0;
  std::int64_t current = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    high_water = std::max(high_water, events[i].ts);
    const std::int64_t now = window.tick_of(high_water);
    if (i > 0 && now > current) {
      const util::TimePoint close = window.tick_end(current);
      const util::Day tick_day = util::day_of(close - 1);
      core::DayAccumulator accumulator = pipeline.begin_day(tick_day);
      accumulator.add_chunk(std::span(events.data(), i));
      const core::DayAnalysis analysis =
          pipeline.finish_day(std::move(accumulator));
      const std::vector<core::ScoredDomain> cc = pipeline.detect_cc(analysis);
      std::vector<std::string> domains;
      for (const auto& scored : cc) domains.push_back(scored.name);
      std::vector<std::string> hosts;
      if (!cc.empty()) {
        const core::BpRunReport bp = pipeline.run_bp_nohint(analysis, cc);
        for (const auto& detected : bp.domains) domains.push_back(detected.name);
        hosts = bp.hosts;
      }
      filter.emit(analysis, domains, hosts, /*provisional=*/true, close,
                  tick_day, out.emissions);
    }
    if (i == 0 || now > current) current = now;
  }

  api::VectorSource whole(day, &events);
  const core::DayAnalysis closing = detector.analyze_stream(whole, day);
  whole.reset();
  const core::DayReport report = detector.run_day(whole, day, soc_seeds());
  std::vector<std::string> domains;
  for (const auto& scored : report.cc_domains) domains.push_back(scored.name);
  for (const auto& detected : report.nohint.domains)
    domains.push_back(detected.name);
  for (const auto& detected : report.sochints.domains)
    domains.push_back(detected.name);
  std::set<std::string> host_set(report.nohint.hosts.begin(),
                                 report.nohint.hosts.end());
  host_set.insert(report.sochints.hosts.begin(), report.sochints.hosts.end());
  filter.emit(closing, domains, {host_set.begin(), host_set.end()},
              /*provisional=*/false, util::day_start(day + 1), day,
              out.emissions);
  out.days.push_back(report);
  return out;
}

// The core contract: across the full tick × threads × depth sweep, the
// engine's cached-partial window merge must reproduce the batch
// reference's entire observable output — day reports and the provisional
// emission sequence — byte for byte.
TEST(RtIncrementalTest, MatchesBatchReferenceAcrossTicksThreadsDepth) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  auto events = campaign_day(kDay, whois);

  for (const std::int64_t tick : {std::int64_t{300}, std::int64_t{3600},
                                  std::int64_t{86400}}) {
    api::Detector reference_detector =
        trained_detector(whois, intel, train, 1);
    const ContinuousReport expected =
        batch_reference(reference_detector, events, kDay, tick);
    const std::string reference = report_fingerprint(expected);
    ASSERT_NE(reference.find("evil-cc.ru"), std::string::npos);
    // Sub-day ticks must exercise the provisional path.
    EXPECT_EQ(std::any_of(expected.emissions.begin(), expected.emissions.end(),
                          [](const IncidentEmission& e) { return e.provisional; }),
              tick < 86400);
    for (const std::size_t threads : {1u, 8u}) {
      for (const std::size_t depth : {1u, 2u}) {
        SCOPED_TRACE("tick " + std::to_string(tick) + ", threads " +
                     std::to_string(threads) + ", depth " +
                     std::to_string(depth));
        api::Detector detector =
            trained_detector(whois, intel, train, threads, depth);
        EngineConfig config;
        config.window.tick_seconds = tick;
        config.seeds = soc_seeds();
        api::VectorSource source(kDay, &events);
        const ContinuousReport report = detector.run_continuous(source, config);
        EXPECT_EQ(report_fingerprint(report), reference);
        // The cache actually carried the evaluations whenever a tick
        // boundary fell inside the day.
        if (tick < 86400) {
          EXPECT_GT(report.stats.buckets_sealed, 0u);
          EXPECT_GT(report.stats.partial_absorbs, 0u);
        }
      }
    }
  }
}

// Chunk boundaries are an ingestion artifact and must not show through:
// one chunk per event, odd-sized chunks straddling tick boundaries, and
// one chunk for the whole day all produce identical output.
TEST(RtIncrementalTest, ChunkStraddlingTickBoundariesIsInvisible) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  auto events = campaign_day(kDay, whois);

  std::string baseline;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{1000000}}) {
    SCOPED_TRACE("chunk_events " + std::to_string(chunk));
    api::Detector detector = trained_detector(whois, intel, train, 1);
    EngineConfig config;
    config.window.tick_seconds = 300;
    config.seeds = soc_seeds();
    api::VectorSource source(kDay, &events, chunk);
    const ContinuousReport report = detector.run_continuous(source, config);
    const std::string fingerprint = report_fingerprint(report);
    if (baseline.empty()) {
      baseline = fingerprint;
      ASSERT_NE(baseline.find("evil-cc.ru"), std::string::npos);
    } else {
      EXPECT_EQ(fingerprint, baseline);
    }
  }
}

}  // namespace
}  // namespace eid::rt
