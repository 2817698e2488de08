// Incremental window re-scoring (rt/window.h + graph::WindowDictionary):
// the engine's tick evaluation assembles the window graph from flat
// sealed segments instead of re-ingesting the window's raw events. These
// tests pin the equivalence contract from both ends:
//
//   * window-level — the assembled graph is bit-identical to a sequential
//     ingest of the same event sequence at every tick, across sealing,
//     window growth and slide, empty-tick gaps, late timestamps sealed
//     into later buckets, names / UAs / IPs whose first in-window
//     occurrence expires, late appends into sealed buckets, a large
//     bucket among small ones, and dictionary compaction over a many-day
//     follow; filtered, it is that graph restricted to the kept domains
//     and their hosts;
//   * engine-level — a full continuous run produces the same day reports
//     AND the same provisional/finalized emission sequence, field for
//     field, as a batch reference that re-analyzes the in-window events
//     with the pipeline's day verbs at every evaluated tick, for every
//     tick size, on a growing and on a sliding day, and regardless of how
//     chunks straddle tick boundaries.
#include "rt/window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/incidents.h"
#include "core/report_json.h"
#include "profile/domain_history.h"
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
/// signatures are observably identical. With `keep`, the graph restricted
/// to the kept domains: only the kept domains with their edges and IP
/// rows and only the hosts with a kept edge, in the same order.
std::string graph_signature(
    const graph::DayGraph& graph,
    const std::function<bool(const std::string&)>& keep = {}) {
  const auto kept = [&](graph::DomainId d) {
    return !keep || keep(graph.domain_name(d));
  };
  std::vector<bool> has_kept_edge(graph.host_count(), false);
  graph.for_each_edge(
      [&](graph::HostId h, graph::DomainId d, const graph::EdgeData&) {
        if (kept(d)) has_kept_edge[h] = true;
      });
  std::ostringstream out;
  out << "hosts:";
  for (graph::HostId h = 0; h < graph.host_count(); ++h) {
    if (!keep || has_kept_edge[h]) out << graph.host_name(h) << ',';
  }
  out << "\ndomains:";
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    if (kept(d)) out << graph.domain_name(d) << ',';
  }
  out << '\n';
  graph.for_each_edge([&](graph::HostId h, graph::DomainId d,
                          const graph::EdgeData& e) {
    if (!kept(d)) return;
    out << graph.host_name(h) << "->" << graph.domain_name(d) << " t=";
    for (const util::TimePoint t : e.times) out << t << ',';
    out << " ua=";
    for (const graph::UaId ua : e.user_agents) out << graph.ua_name(ua) << ',';
    out << " ref=" << e.any_referer << " noua=" << e.any_empty_ua << '\n';
  });
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    if (!kept(d)) continue;
    out << "ips " << graph.domain_name(d) << ":";
    for (const util::Ipv4 ip : graph.domain_ips(d)) out << ip.value << ',';
    out << '\n';
  }
  return out.str();
}

/// Sequential ingest of `events` in order, finalized.
graph::DayGraph sequential_graph(const std::vector<logs::ConnEvent>& events) {
  graph::DayGraph graph;
  for (const auto& ev : events) graph.add_event(ev);
  graph.finalize();
  return graph;
}

/// Sequential-ingest baseline over `events` in order.
std::string sequential_signature(const std::vector<logs::ConnEvent>& events) {
  return graph_signature(sequential_graph(events));
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

void append_all(WindowAccumulator& window,
                const std::vector<logs::ConnEvent>& events) {
  for (const auto& ev : events) {
    window.append(ev, window.config().tick_of(ev.ts), util::day_of(ev.ts));
  }
}

/// Assemble the window ending at `tick` into `out` and return its
/// signature; `events` gets the event count the window reports.
std::string assembled_signature(WindowAccumulator& window, std::int64_t tick,
                                graph::DayGraph& out, std::size_t& events) {
  events = window.assemble_window(tick, out);
  EXPECT_TRUE(out.finalized());
  return graph_signature(out);
}

// Sealing a bucket moves its events from the raw buffer into a flat
// segment and releases the raw storage — the memory fix behind the
// rt_peak_buffered_events bench assertion.
TEST(RtIncrementalTest, SealReleasesRawEvents) {
  WindowAccumulator window(small_window());
  const auto events = tick_events(0, 1);
  append_all(window, events);
  EXPECT_EQ(window.buffered_events(), events.size());
  EXPECT_EQ(window.cached_events(), 0u);

  graph::DayGraph graph;
  EXPECT_EQ(window.assemble_window(0, graph), events.size());
  EXPECT_EQ(window.buffered_events(), 0u);
  EXPECT_EQ(window.cached_events(), events.size());
  EXPECT_EQ(window.stats().segments_sealed, 1u);
  EXPECT_EQ(window.window_events(0), events.size());
}

// Tick after tick over a sliding window, into one recycled output graph:
// every tick's assembled graph must be bit-identical to sequentially
// ingesting the in-window events. While the window front is unchanged the
// evaluation counts as front-kept; every slide counts as front-moved.
TEST(RtIncrementalTest, AssemblyMatchesSequentialAcrossSlide) {
  WindowAccumulator window(small_window());
  graph::DayGraph recycled;
  std::vector<std::vector<logs::ConnEvent>> per_tick;
  for (std::int64_t tick = 0; tick < 7; ++tick) {
    per_tick.push_back(tick_events(tick, static_cast<int>(tick) + 1));
    append_all(window, per_tick.back());

    std::size_t events = 0;
    const std::string assembled =
        assembled_signature(window, tick, recycled, events);

    std::vector<logs::ConnEvent> in_window;
    const std::int64_t first_live =
        tick - window.config().window_ticks() + 1;
    for (std::int64_t t = std::max<std::int64_t>(0, first_live); t <= tick;
         ++t) {
      for (const auto& ev : per_tick[static_cast<std::size_t>(t)]) {
        in_window.push_back(ev);
      }
    }
    EXPECT_EQ(events, in_window.size());
    EXPECT_EQ(assembled, sequential_signature(in_window));
    window.expire(tick);
    window.close_day(util::day_of(tick * 300));
  }
  // 4-tick window over 7 ticks: the first 4 evaluations share one front
  // (1 moved + 3 kept), each slide afterwards moves it.
  EXPECT_EQ(window.stats().front_moved, 4u);
  EXPECT_EQ(window.stats().front_kept, 3u);
  EXPECT_EQ(window.stats().invalidations, 0u);
  // Each evaluation read every in-window segment: 1+2+3+4+4+4+4.
  EXPECT_EQ(window.stats().segments_read, 22u);
}

// Quiet ticks leave no bucket behind; the assembly must skip the gap and
// the result must still equal the sequential ingest of what exists.
TEST(RtIncrementalTest, EmptyTickGapsAreSkipped) {
  WindowAccumulator window(small_window());
  graph::DayGraph graph;
  const auto first = tick_events(0, 1);
  const auto later = tick_events(3, 2);  // ticks 1 and 2 stay empty
  append_all(window, first);
  ASSERT_GT(window.assemble_window(0, graph), 0u);
  append_all(window, later);

  std::size_t events = 0;
  const std::string assembled = assembled_signature(window, 3, graph, events);
  std::vector<logs::ConnEvent> all = first;
  all.insert(all.end(), later.begin(), later.end());
  EXPECT_EQ(events, all.size());
  EXPECT_EQ(assembled, sequential_signature(all));
  // The gap produced no buckets, so the front stayed put.
  EXPECT_EQ(window.stats().front_moved, 1u);
  EXPECT_EQ(window.stats().front_kept, 1u);
}

// An append that lands behind an already-evaluated tick joins the sealed
// bucket's raw tail (its end-of-bucket arrival position) and invalidates
// the window; the next assembly seals the tail as a second segment and
// must match the sequential ingest of the effective order.
TEST(RtIncrementalTest, LateAppendIntoSealedBucketInvalidates) {
  WindowAccumulator window(small_window());
  graph::DayGraph graph;
  const auto batch = tick_events(2, 3);
  append_all(window, batch);
  ASSERT_GT(window.assemble_window(2, graph), 0u);
  EXPECT_EQ(window.buffered_events(), 0u);

  // Same tick, arrives after the evaluation — a new edge and a new host.
  DayBuilder late_builder;
  late_builder.visit("late-host", "late.com", 2 * 300 + 299,
                     util::Ipv4::from_octets(10, 9, 9, 9), "LateUA", true);
  const logs::ConnEvent late = late_builder.events()[0];
  window.append(late, 2, util::day_of(late.ts));
  EXPECT_EQ(window.stats().invalidations, 1u);
  EXPECT_EQ(window.bucket_count(), 1u);     // same bucket, raw tail
  EXPECT_EQ(window.buffered_events(), 1u);

  std::size_t events = 0;
  const std::string assembled = assembled_signature(window, 2, graph, events);
  std::vector<logs::ConnEvent> effective = batch;
  effective.push_back(late);
  EXPECT_EQ(events, effective.size());
  EXPECT_EQ(assembled, sequential_signature(effective));
  EXPECT_EQ(window.buffered_events(), 0u);
  EXPECT_EQ(window.stats().segments_sealed, 2u);
  EXPECT_EQ(window.stats().front_moved, 2u);  // initial + invalidated
}

// The sliding regime's edge cases, checked at every tick over four window
// lengths against a sequential ingest of the in-window arrival sequence,
// into one recycled output graph:
//
//   * late timestamps — every bucket also carries events stamped one and
//     two ticks earlier (a ReplayClock bucket follows the high-water
//     mark), so an edge's runs concatenate out of order;
//   * rotating names — a host, domain and UA recur every third tick, so
//     their first in-window occurrence keeps expiring while they recur
//     and their window ids move;
//   * an edge whose UA and a domain whose IP alternate, so the first-seen
//     UA / IP expires and the lists reorder;
//   * late appends into sealed buckets after the window has slid.
//
// Buckets carry their tick as the day tag and each "day" closes once its
// tick is evaluated, so expiry runs every tick as in steady state.
TEST(RtIncrementalTest, SlidingEdgeCasesMatchSequentialEveryTick) {
  const WindowConfig config = small_window();
  WindowAccumulator window(config);
  graph::DayGraph recycled;
  const std::int64_t ticks = 4 * config.window_ticks();
  std::vector<std::vector<logs::ConnEvent>> arrived(
      static_cast<std::size_t>(ticks));

  const auto tick_batch = [](std::int64_t tick) {
    DayBuilder b;
    const util::TimePoint base = tick * 300;
    const int t = static_cast<int>(tick);
    // Stable background traffic, plus the late-timestamp events.
    b.visit("steady", "steady.com", base + 100,
            util::Ipv4::from_octets(10, 1, 0, 1), "SteadyUA", true);
    if (tick >= 1) {
      b.visit("steady", "steady.com", base - 300 + 7, {0}, "SteadyUA");
    }
    if (tick >= 2) {
      b.visit("h" + std::to_string(t % 5), "steady.com", base - 600 + 11,
              util::Ipv4::from_octets(10, 1, 0, 2), "");
    }
    // Names recurring every few ticks, so each one's first in-window
    // occurrence keeps expiring while it recurs later in the window.
    const std::string rot_host = "rot-host" + std::to_string(t % 3);
    const std::string rot_domain = "rot" + std::to_string(t % 4) + ".com";
    const std::string next_domain = "rot" + std::to_string((t + 1) % 4) + ".com";
    b.visit(rot_host, rot_domain, base + 20,
            util::Ipv4::from_octets(10, 2, 0, t % 3),
            "RotUA" + std::to_string(t % 3));
    if (tick % 3 == 0) {
      b.visit("recurring", "recurring.com", base + 30,
              util::Ipv4::from_octets(10, 3, 0, 1), "RecurringUA");
    }
    b.visit("h" + std::to_string(t % 5), next_domain, base + 40, {0},
            tick % 2 == 0 ? "" : "RotUA1", tick % 2 == 0);
    // Alternating first-seen UA on one edge and IP on one domain.
    b.visit("flip", "flip.com", base + 50,
            util::Ipv4::from_octets(10, 4, 0, 1 + t % 2),
            t % 2 == 0 ? "FlipA" : "FlipB");
    b.visit("flip", "flip.com", base + 60,
            util::Ipv4::from_octets(10, 4, 0, 2 - t % 2),
            t % 2 == 0 ? "FlipB" : "FlipA");
    return b.events();
  };

  std::size_t late_appends = 0;
  for (std::int64_t tick = 0; tick < ticks; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    const util::Day tag = static_cast<util::Day>(tick);
    std::vector<logs::ConnEvent>& bucket =
        arrived[static_cast<std::size_t>(tick)];
    for (const auto& ev : tick_batch(tick)) {
      window.append(ev, tick, tag);
      bucket.push_back(ev);
    }
    const auto check = [&] {
      std::vector<logs::ConnEvent> in_window;
      for (std::int64_t t = std::max<std::int64_t>(
               0, tick - config.window_ticks() + 1);
           t <= tick; ++t) {
        const auto& events = arrived[static_cast<std::size_t>(t)];
        in_window.insert(in_window.end(), events.begin(), events.end());
      }
      std::size_t events = 0;
      EXPECT_EQ(assembled_signature(window, tick, recycled, events),
                sequential_signature(in_window));
      EXPECT_EQ(events, in_window.size());
    };
    window.expire(tick);
    check();
    if (tick >= config.window_ticks() && tick % 3 == 1) {
      // Late append after the slide: behind the evaluated tick, into its
      // sealed bucket — a recurring name and a fresh edge.
      DayBuilder late;
      late.visit("recurring", "late" + std::to_string(tick) + ".com",
                 tick * 300 - 450, util::Ipv4::from_octets(10, 5, 0, 1),
                 "RecurringUA", true);
      late.visit("flip", "flip.com", tick * 300 + 1,
                 util::Ipv4::from_octets(10, 4, 0, 9), "FlipC");
      for (const auto& ev : late.events()) {
        window.append(ev, tick, tag);
        bucket.push_back(ev);
      }
      EXPECT_EQ(window.bucket_count(),
                static_cast<std::size_t>(config.window_ticks()));
      ++late_appends;
      check();
    }
    window.close_day(tag);
  }
  // Every bucket sealed once, plus one tail segment per late append.
  EXPECT_GT(late_appends, 0u);
  EXPECT_EQ(window.stats().segments_sealed,
            static_cast<std::size_t>(ticks) + late_appends);
}

// A many-day follow where every day brings fresh host, domain and UA
// names: expiry releases the slid-out buckets' dictionary references and
// compaction keeps the window dictionary within twice the names and edges
// the live buckets (window ∪ open day) reference — the memory bound the
// header promises — while every tick still assembles bit-identically.
TEST(RtIncrementalTest, WindowDictionaryStaysBoundedOverManyDays) {
  WindowConfig config;
  config.tick_seconds = 3600;
  config.window_seconds = util::kSecondsPerDay;
  WindowAccumulator window(config);
  graph::DayGraph recycled;

  struct Arrived {
    std::int64_t tick = 0;
    util::Day day = 0;
    logs::ConnEvent event;
  };
  std::vector<Arrived> arrived;
  std::set<std::string> ever;
  constexpr int kDays = 6;
  for (int d = 0; d < kDays; ++d) {
    const util::Day day = kDay + d;
    if (d > 0) window.close_day(day - 1);
    for (std::int64_t h = 0; h < 24; ++h) {
      const std::int64_t tick = (util::day_start(day) / 3600) + h;
      SCOPED_TRACE("day " + std::to_string(d) + " hour " + std::to_string(h));
      DayBuilder b;
      for (int i = 0; i < 6; ++i) {
        const std::string prefix = "d" + std::to_string(d) + "-";
        b.visit(prefix + "host" + std::to_string((h + i) % 9),
                prefix + "site" + std::to_string((h * 3 + i) % 11) + ".com",
                tick * 3600 + i * 60, util::Ipv4::from_octets(10, 6, 0, i),
                i % 2 == 0 ? prefix + "UA" + std::to_string(i % 3) : "");
        b.visit("office-host", "intranet.com", tick * 3600 + i * 60 + 5,
                util::Ipv4::from_octets(10, 7, 0, 1), "OfficeUA");
      }
      for (const auto& ev : b.events()) {
        window.append(ev, tick, day);
        arrived.push_back(Arrived{tick, day, ev});
        ever.insert(ev.host + "->" + ev.domain);
      }
      window.expire(tick);

      const std::int64_t first_live = tick - config.window_ticks() + 1;
      std::vector<logs::ConnEvent> in_window;
      for (const Arrived& a : arrived) {
        if (a.tick >= first_live) in_window.push_back(a.event);
      }
      std::size_t events = 0;
      EXPECT_EQ(assembled_signature(window, tick, recycled, events),
                sequential_signature(in_window));
      EXPECT_EQ(events, in_window.size());

      // What the live buckets hold — in the window or on the open day —
      // counted independently of the accumulator.
      std::set<std::string> hosts, domains, uas, edges;
      for (const Arrived& a : arrived) {
        if (a.tick < first_live && a.day != day) continue;
        hosts.insert(a.event.host);
        domains.insert(a.event.domain);
        if (!a.event.user_agent.empty()) uas.insert(a.event.user_agent);
        edges.insert(a.event.host + "->" + a.event.domain);
      }
      const std::size_t live =
          hosts.size() + domains.size() + uas.size() + edges.size();
      EXPECT_EQ(window.dictionary_live(), live);
      EXPECT_LE(window.dictionary_size(), 2 * live);
    }
  }
  // Without compaction the dictionary would hold every day's edges.
  EXPECT_LT(window.dictionary_size(), ever.size());
}

// The tick's candidate assembly: at every tick of a sliding many-day
// follow, the graph assembled under a domain filter ("new to the history",
// the engine's) must be the full window graph restricted to the kept
// domains — only the hosts with a kept edge, in their full-graph relative
// order (a host that only contacts known domains is absent), kept domains
// in their full-graph relative order, per kept edge the same times, UA
// names and flags, and the same IP rows. The filter's answers are cached
// per dictionary domain id and, as kept positions, per segment, so the run
// also changes what they must be: a history.update between ticks drops a
// recurring domain, a smaller history move-assigned over the old one
// brings it back, and so does a restore; dictionary compaction renumbers
// the cached ids; and a late-stamped visit every tick makes the kept
// edge's runs concatenate out of order.
TEST(RtIncrementalTest, FilteredAssemblyIsTheWindowRestrictedToKeptDomains) {
  WindowConfig config;
  config.tick_seconds = 3600;
  config.window_seconds = util::kSecondsPerDay;
  WindowAccumulator window(config);
  graph::DayGraph full;
  graph::DayGraph filtered;

  profile::DomainHistory history;
  history.update({"intranet.com", "d0-site1.com"});
  const auto is_new = [&history](const std::string& name) {
    return history.is_new(name);
  };

  constexpr int kDays = 4;
  std::size_t compactions = 0;
  std::size_t ticks_watch_dropped = 0;
  std::size_t ticks_watch_kept = 0;
  std::size_t previous_size = 0;
  for (int d = 0; d < kDays; ++d) {
    const util::Day day = kDay + d;
    if (d > 0) window.close_day(day - 1);
    for (std::int64_t h = 0; h < 24; ++h) {
      const std::int64_t tick = (util::day_start(day) / 3600) + h;
      SCOPED_TRACE("day " + std::to_string(d) + " hour " + std::to_string(h));
      DayBuilder b;
      const std::string prefix = "d" + std::to_string(d) + "-";
      for (int i = 0; i < 5; ++i) {
        b.visit(prefix + "host" + std::to_string((h + i) % 7),
                prefix + "site" + std::to_string((h * 3 + i) % 9) + ".com",
                tick * 3600 + i * 60, util::Ipv4::from_octets(10, 6, 0, i),
                i % 2 == 0 ? prefix + "UA" + std::to_string(i % 3) : "",
                i % 3 == 0);
        b.visit("office-host", "intranet.com", tick * 3600 + i * 60 + 5,
                util::Ipv4::from_octets(10, 7, 0, 1), "OfficeUA");
      }
      // A recurring candidate with a late-stamped visit, an alternating
      // UA and IP, and a host that only ever contacts known domains.
      b.visit("watcher" + std::to_string(h % 3), "watch.com",
              tick * 3600 + 600, util::Ipv4::from_octets(10, 8, 0, h % 2),
              h % 2 == 0 ? "WatchA" : "WatchB", true);
      b.visit("watcher0", "watch.com", tick * 3600 - 1800,
              util::Ipv4::from_octets(10, 8, 0, 9), "WatchB");
      b.visit("known-only", "intranet.com", tick * 3600 + 900, {0}, "OfficeUA");
      for (const auto& ev : b.events()) window.append(ev, tick, day);
      window.expire(tick);
      if (window.dictionary_size() < previous_size) ++compactions;
      previous_size = window.dictionary_size();

      // History changes between ticks.
      if (d == 1 && h == 6) history.update({"watch.com"});
      if (d == 2 && h == 0) {
        // As many updates as the history it replaces: a per-object count
        // would repeat the generation the cached answers belong to.
        profile::DomainHistory smaller;
        smaller.update({"intranet.com"});
        smaller.update({"d0-site1.com"});
        history = std::move(smaller);
      }
      if (d == 2 && h == 12) history.update({"watch.com", "d2-site4.com"});
      if (d == 3 && h == 0) {
        profile::DomainHistory::DomainSet known;
        known.insert("intranet.com");
        history.restore(std::move(known), 5);
      }

      const graph::DomainFilter filter{
          history.generation(),
          [&history](std::string_view name) { return history.is_new(name); }};
      const std::size_t events = window.assemble_window(tick, full);
      EXPECT_EQ(window.assemble_window(tick, filtered, &filter), events);
      EXPECT_TRUE(filtered.finalized());
      EXPECT_EQ(graph_signature(filtered), graph_signature(full, is_new));
      std::size_t kept_hosts = 0;
      for (graph::HostId h = 0; h < full.host_count(); ++h) {
        const auto domains = full.host_domains(h);
        kept_hosts += std::any_of(domains.begin(), domains.end(),
                                  [&](graph::DomainId d) {
                                    return is_new(full.domain_name(d));
                                  });
      }
      EXPECT_EQ(filtered.host_count(), kept_hosts);
      EXPECT_NE(full.find_host("known-only"), graph::kNoId);
      EXPECT_EQ(filtered.find_host("known-only"), graph::kNoId);
      EXPECT_LT(filtered.domain_count(), full.domain_count());
      if (filtered.find_domain("watch.com") == graph::kNoId) {
        ++ticks_watch_dropped;
      } else {
        ++ticks_watch_kept;
      }
    }
  }
  // The cached answers were dropped and re-resolved along the way.
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(ticks_watch_dropped, 0u);
  EXPECT_GT(ticks_watch_kept, 0u);
  // watch.com is known from day 1 06:00 to day 2 00:00 and from day 2
  // 12:00 to day 3 00:00.
  EXPECT_EQ(ticks_watch_dropped, 18u + 12u);
}

// One large bucket followed by small ones: the window seals every bucket
// through one recycled graph, which the large bucket grows and the next
// small one releases (far larger than it needs), and every later seal
// clears and refills. At every tick, before and after the large bucket
// slides out, the unfiltered assembly must equal sequential ingest of the
// window and the filtered one that graph restricted to the kept domains.
TEST(RtIncrementalTest, LargeBucketThenSmallOnesMatchSequentialEveryTick) {
  const WindowConfig config = small_window();
  WindowAccumulator window(config);
  graph::DayGraph full;
  graph::DayGraph filtered;
  profile::DomainHistory history;
  history.update({"shared.com", "d1.com", "bulk0.com", "bulk2.com"});
  const auto is_new = [&history](const std::string& name) {
    return history.is_new(name);
  };
  const graph::DomainFilter filter{
      history.generation(),
      [&history](std::string_view name) { return history.is_new(name); }};

  const std::int64_t ticks = 3 * config.window_ticks();
  std::vector<std::vector<logs::ConnEvent>> arrived(
      static_cast<std::size_t>(ticks));
  for (std::int64_t tick = 0; tick < ticks; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    std::vector<logs::ConnEvent>& bucket =
        arrived[static_cast<std::size_t>(tick)];
    if (tick == 1) {
      DayBuilder big;
      for (int i = 0; i < 12000; ++i) {
        big.visit("bulk-host" + std::to_string(i % 611),
                  "bulk" + std::to_string(i % 37) + ".com", 300 + i % 300,
                  util::Ipv4::from_octets(10, 9, i % 7, i % 5),
                  i % 4 == 0 ? "" : "BulkUA" + std::to_string(i % 13),
                  i % 3 == 0);
      }
      bucket = big.events();
    } else {
      bucket = tick_events(tick, static_cast<int>(tick));
    }
    const util::Day tag = static_cast<util::Day>(tick);
    for (const auto& ev : bucket) window.append(ev, tick, tag);
    window.expire(tick);

    std::vector<logs::ConnEvent> in_window;
    for (std::int64_t t = std::max<std::int64_t>(
             0, tick - config.window_ticks() + 1);
         t <= tick; ++t) {
      const auto& events = arrived[static_cast<std::size_t>(t)];
      in_window.insert(in_window.end(), events.begin(), events.end());
    }
    const graph::DayGraph sequential = sequential_graph(in_window);
    EXPECT_EQ(window.assemble_window(tick, full), in_window.size());
    EXPECT_EQ(graph_signature(full), graph_signature(sequential));
    EXPECT_EQ(window.assemble_window(tick, filtered, &filter),
              in_window.size());
    EXPECT_EQ(graph_signature(filtered), graph_signature(sequential, is_new));
    window.close_day(tag);
  }
  EXPECT_EQ(window.stats().segments_sealed, static_cast<std::size_t>(ticks));
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

/// The day after campaign_day: h5 keeps beaconing evil-cc.ru (known to
/// the history once that day closes) from before the morning browsing, and
/// a second campaign puts h2 and h5 on a new C&C domain, h2 after a drop
/// site. Once the first day's browsing slides out of the window, h5 first
/// appears before h2, the reverse of their first-day order.
std::vector<logs::ConnEvent> sliding_campaign_day(util::Day day,
                                                  MapWhois& whois) {
  const util::TimePoint base = util::day_start(day);
  DayBuilder early;
  early.beacon("h5", "evil-cc.ru", base + 400, 600, 40,
               util::Ipv4::from_octets(198, 51, 100, 9), "");
  std::vector<logs::ConnEvent> events = early.events();
  for (const auto& ev : browsing_day(day)) events.push_back(ev);
  DayBuilder extra;
  whois.add("evil-cc2.ru", day - 2, day + 40);
  whois.add("evil-drop2.ru", day - 3, day + 40);
  extra.visit("h2", "evil-drop2.ru", base + 9000,
              util::Ipv4::from_octets(198, 51, 100, 30), "", false);
  extra.beacon("h2", "evil-cc2.ru", base + 9040, 600, 40,
               util::Ipv4::from_octets(198, 51, 100, 31), "");
  extra.beacon("h5", "evil-cc2.ru", base + 9100, 600, 40,
               util::Ipv4::from_octets(198, 51, 100, 31), "");
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
                               const std::vector<TrainingDay>& train) {
  core::PipelineConfig config;
  config.ua_rare_threshold = 3;
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

/// What the continuous engine must produce for `days` (day first_day + i)
/// replayed through a ReplayClock at `tick` seconds: walk the events in
/// arrival order, and whenever the high-water tick advances past a tick
/// holding new events, analyze that tick's window from scratch with the
/// batch day verbs (begin_day / add_chunk / finish_day → detect_cc →
/// run_bp_nohint). An event belongs to the tick its arrival moved the
/// high-water mark to, and the day-long window ending at tick T holds the
/// events of its last window_ticks() ticks: on the first day the whole
/// arrival prefix, after it a slid window whose hosts first appear in
/// another order. Each day closes with batch run_day, committing the
/// histories, when the next day's first event arrives (before that
/// arrival's tick evaluation) or at the end.
ContinuousReport batch_reference(
    api::Detector& detector,
    const std::vector<std::vector<logs::ConnEvent>>& days,
    util::Day first_day, std::int64_t tick) {
  WindowConfig window;
  window.tick_seconds = tick;
  const core::Pipeline& pipeline = detector.pipeline();
  NoveltyFilter filter;
  ContinuousReport out;
  const auto close_day = [&](std::size_t index) {
    const util::Day day = first_day + static_cast<util::Day>(index);
    api::VectorSource whole(day, &days[index]);
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
  };
  const auto evaluate = [&](std::int64_t evaluated,
                            const std::vector<logs::ConnEvent>& arrived,
                            const std::vector<std::int64_t>& arrival_tick) {
    const util::TimePoint close = window.tick_end(evaluated);
    const util::Day tick_day = util::day_of(close - 1);
    const std::int64_t first_live = evaluated - window.window_ticks() + 1;
    std::vector<logs::ConnEvent> in_window;
    for (std::size_t j = 0; j < arrived.size(); ++j) {
      if (arrival_tick[j] >= first_live) in_window.push_back(arrived[j]);
    }
    core::DayAccumulator accumulator = pipeline.begin_day(tick_day);
    accumulator.add_chunk(in_window);
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
  };

  std::vector<logs::ConnEvent> arrived;
  std::vector<std::int64_t> arrival_tick;
  util::TimePoint high_water = 0;
  std::int64_t current = 0;
  for (std::size_t index = 0; index < days.size(); ++index) {
    if (index > 0) close_day(index - 1);
    for (const logs::ConnEvent& event : days[index]) {
      high_water = std::max(high_water, event.ts);
      const std::int64_t now = window.tick_of(high_water);
      if (!arrived.empty() && now > current) {
        evaluate(current, arrived, arrival_tick);
      }
      if (arrived.empty() || now > current) current = now;
      arrived.push_back(event);
      arrival_tick.push_back(now);
    }
  }
  close_day(days.size() - 1);
  return out;
}

// The core contract: at every tick size, the engine's window assembly
// from sealed segments must reproduce the batch reference's entire
// observable output — day reports and the provisional emission sequence —
// byte for byte.
TEST(RtIncrementalTest, MatchesBatchReferenceAcrossTicks) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  auto events = campaign_day(kDay, whois);

  for (const std::int64_t tick : {std::int64_t{300}, std::int64_t{3600},
                                  std::int64_t{86400}}) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    api::Detector reference_detector = trained_detector(whois, intel, train);
    const ContinuousReport expected =
        batch_reference(reference_detector, {events}, kDay, tick);
    const std::string reference = report_fingerprint(expected);
    ASSERT_NE(reference.find("evil-cc.ru"), std::string::npos);
    // Sub-day ticks must exercise the provisional path.
    EXPECT_EQ(std::any_of(expected.emissions.begin(), expected.emissions.end(),
                          [](const IncidentEmission& e) { return e.provisional; }),
              tick < 86400);
    api::Detector detector = trained_detector(whois, intel, train);
    EngineConfig config;
    config.window.tick_seconds = tick;
    config.seeds = soc_seeds();
    api::VectorSource source(kDay, &events);
    const ContinuousReport report = detector.run_continuous(source, config);
    EXPECT_EQ(report_fingerprint(report), reference);
    // The sealed segments actually carried the evaluations whenever a
    // tick boundary fell inside the day.
    if (tick < 86400) {
      EXPECT_GT(report.stats.buckets_sealed, 0u);
      EXPECT_GT(report.stats.partial_absorbs, 0u);
    }
  }
}

// The same contract over two days: every second-day tick evaluates a
// window that has slid — the first day's events leave it tick by tick, so
// hosts' first appearances move — scored against the histories the first
// day's close committed.
TEST(RtIncrementalTest, MatchesBatchReferenceAcrossSlidingDay) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  const std::vector<std::vector<logs::ConnEvent>> days = {
      campaign_day(kDay, whois), sliding_campaign_day(kDay + 1, whois)};

  for (const std::int64_t tick : {std::int64_t{300}, std::int64_t{3600}}) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    api::Detector reference_detector = trained_detector(whois, intel, train);
    const ContinuousReport expected =
        batch_reference(reference_detector, days, kDay, tick);
    ASSERT_EQ(expected.days.size(), 2u);
    // The second day's new campaign surfaces at a tick, not at its close.
    EXPECT_TRUE(std::any_of(
        expected.emissions.begin(), expected.emissions.end(),
        [](const IncidentEmission& e) {
          return e.provisional && e.day == kDay + 1 &&
                 std::find(e.domains.begin(), e.domains.end(),
                           "evil-cc2.ru") != e.domains.end();
        }));
    api::Detector detector = trained_detector(whois, intel, train);
    EngineConfig config;
    config.window.tick_seconds = tick;
    config.seeds = soc_seeds();
    api::MultiDaySource source(kDay, &days);
    const ContinuousReport report = detector.run_continuous(source, config);
    EXPECT_EQ(report_fingerprint(report), report_fingerprint(expected));
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
    api::Detector detector = trained_detector(whois, intel, train);
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
