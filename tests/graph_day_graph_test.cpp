#include "graph/day_graph.h"

#include <gtest/gtest.h>

#include "graph/window_dictionary.h"

namespace eid::graph {
namespace {

logs::ConnEvent event(util::TimePoint ts, std::string host, std::string domain,
                      std::string ua = "", bool referer = false) {
  logs::ConnEvent ev;
  ev.ts = ts;
  ev.host = std::move(host);
  ev.domain = std::move(domain);
  ev.user_agent = std::move(ua);
  ev.has_referer = referer;
  ev.has_http_context = true;
  ev.dest_ip = util::Ipv4::from_octets(1, 2, 3, 4);
  return ev;
}

/// Owned copy of an edge payload span, for comparisons.
template <typename T>
std::vector<T> owned(std::span<const T> values) {
  return {values.begin(), values.end()};
}

TEST(DayGraphTest, BasicAdjacency) {
  DayGraph graph;
  graph.add_event(event(10, "h1", "a.com"));
  graph.add_event(event(20, "h1", "b.com"));
  graph.add_event(event(30, "h2", "a.com"));
  graph.finalize();
  EXPECT_EQ(graph.host_count(), 2u);
  EXPECT_EQ(graph.domain_count(), 2u);
  EXPECT_EQ(graph.edge_count(), 3u);

  const DomainId a = graph.find_domain("a.com");
  ASSERT_NE(a, kNoId);
  EXPECT_EQ(graph.domain_hosts(a).size(), 2u);
  const HostId h1 = graph.find_host("h1");
  ASSERT_NE(h1, kNoId);
  EXPECT_EQ(graph.host_domains(h1).size(), 2u);
}

TEST(DayGraphTest, EdgeTimesSortedAfterFinalize) {
  DayGraph graph;
  graph.add_event(event(30, "h1", "a.com"));
  graph.add_event(event(10, "h1", "a.com"));
  graph.add_event(event(20, "h1", "a.com"));
  graph.finalize();
  const EdgeData* edge =
      graph.edge(graph.find_host("h1"), graph.find_domain("a.com"));
  ASSERT_NE(edge, nullptr);
  ASSERT_EQ(edge->times.size(), 3u);
  EXPECT_EQ(edge->times[0], 10);
  EXPECT_EQ(edge->times[2], 30);
  EXPECT_EQ(graph.first_contact(graph.find_host("h1"), graph.find_domain("a.com")),
            std::optional<util::TimePoint>(10));
}

TEST(DayGraphTest, MissingEdgeIsNull) {
  DayGraph graph;
  graph.add_event(event(10, "h1", "a.com"));
  graph.add_event(event(10, "h2", "b.com"));
  graph.finalize();
  EXPECT_EQ(graph.edge(graph.find_host("h1"), graph.find_domain("b.com")), nullptr);
  EXPECT_FALSE(
      graph.first_contact(graph.find_host("h1"), graph.find_domain("b.com"))
          .has_value());
}

TEST(DayGraphTest, RefererAggregation) {
  DayGraph graph;
  graph.add_event(event(10, "h1", "a.com", "UA", false));
  graph.add_event(event(20, "h1", "a.com", "UA", true));
  graph.add_event(event(10, "h1", "b.com", "UA", false));
  graph.finalize();
  EXPECT_TRUE(
      graph.edge(graph.find_host("h1"), graph.find_domain("a.com"))->any_referer);
  EXPECT_FALSE(
      graph.edge(graph.find_host("h1"), graph.find_domain("b.com"))->any_referer);
}

TEST(DayGraphTest, UserAgentDeduplication) {
  DayGraph graph;
  graph.add_event(event(10, "h1", "a.com", "UA-1"));
  graph.add_event(event(20, "h1", "a.com", "UA-1"));
  graph.add_event(event(30, "h1", "a.com", "UA-2"));
  graph.add_event(event(40, "h1", "a.com", ""));
  graph.finalize();
  const EdgeData* edge =
      graph.edge(graph.find_host("h1"), graph.find_domain("a.com"));
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->user_agents.size(), 2u);
  EXPECT_TRUE(edge->any_empty_ua);
}

TEST(DayGraphTest, DomainIpsDeduplicated) {
  DayGraph graph;
  auto e1 = event(10, "h1", "a.com");
  auto e2 = event(20, "h2", "a.com");
  auto e3 = event(30, "h3", "a.com");
  e3.dest_ip = util::Ipv4::from_octets(9, 9, 9, 9);
  graph.add_event(e1);
  graph.add_event(e2);
  graph.add_event(e3);
  graph.finalize();
  EXPECT_EQ(graph.domain_ips(graph.find_domain("a.com")).size(), 2u);
}

TEST(DayGraphTest, UnknownNamesReturnNoId) {
  DayGraph graph;
  graph.add_event(event(10, "h1", "a.com"));
  graph.finalize();
  EXPECT_EQ(graph.find_host("nope"), kNoId);
  EXPECT_EQ(graph.find_domain("nope.com"), kNoId);
}

TEST(DayGraphTest, AdjacencyIsDeterministicallySorted) {
  DayGraph graph;
  graph.add_event(event(10, "h3", "a.com"));
  graph.add_event(event(10, "h1", "a.com"));
  graph.add_event(event(10, "h2", "a.com"));
  graph.finalize();
  const auto hosts = graph.domain_hosts(graph.find_domain("a.com"));
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(hosts.begin(), hosts.end()));
}

TEST(DayGraphTest, ForEachEdgeVisitsInSortedOrder) {
  // CSR contract: iteration is ascending (host id, domain id) — stable,
  // unlike the old hash-table order.
  DayGraph graph;
  graph.add_event(event(10, "h2", "b.com"));
  graph.add_event(event(20, "h1", "c.com"));
  graph.add_event(event(30, "h2", "a.com"));
  graph.add_event(event(40, "h1", "a.com"));
  graph.finalize();
  std::vector<std::pair<HostId, DomainId>> visited;
  graph.for_each_edge([&](HostId h, DomainId d, const EdgeData&) {
    visited.emplace_back(h, d);
  });
  ASSERT_EQ(visited.size(), graph.edge_count());
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

// Ids, IP lists and per-edge UA lists follow first appearance in the
// event stream, whether the graph is built event by event or assembled
// from independently sealed slices. Expected values are written out by
// hand.
TEST(DayGraphTest, IdsIpsAndUasFollowFirstAppearance) {
  const auto ip = [](std::uint8_t last) {
    return util::Ipv4::from_octets(10, 0, 0, last);
  };
  std::vector<logs::ConnEvent> stream = {
      event(50, "hB", "y.com", "UA-2"), event(40, "hA", "x.com", "UA-1"),
      event(30, "hB", "x.com", "UA-1"), event(20, "hC", "z.com", ""),
      event(10, "hA", "y.com", "UA-3"), event(60, "hB", "y.com", "UA-1"),
      event(70, "hA", "x.com", "UA-3"), event(5, "hB", "x.com", "UA-2"),
      event(80, "hC", "y.com", "UA-2"),
  };
  const std::uint8_t ips[] = {2, 1, 3, 9, 2, 5, 3, 1, 2};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].dest_ip = ip(ips[i]);
  }

  const auto check = [&](const DayGraph& g) {
    ASSERT_EQ(g.host_count(), 3u);
    ASSERT_EQ(g.domain_count(), 3u);
    ASSERT_EQ(g.edge_count(), 6u);
    EXPECT_EQ(g.host_name(0), "hB");
    EXPECT_EQ(g.host_name(1), "hA");
    EXPECT_EQ(g.host_name(2), "hC");
    EXPECT_EQ(g.domain_name(0), "y.com");
    EXPECT_EQ(g.domain_name(1), "x.com");
    EXPECT_EQ(g.domain_name(2), "z.com");
    EXPECT_EQ(g.ua_name(0), "UA-2");
    EXPECT_EQ(g.ua_name(1), "UA-1");
    EXPECT_EQ(g.ua_name(2), "UA-3");

    using Ips = std::vector<util::Ipv4>;
    const auto ips_of = [&](DomainId d) {
      const auto span = g.domain_ips(d);
      return Ips(span.begin(), span.end());
    };
    EXPECT_EQ(ips_of(0), (Ips{ip(2), ip(5)}));
    EXPECT_EQ(ips_of(1), (Ips{ip(1), ip(3)}));
    EXPECT_EQ(ips_of(2), (Ips{ip(9)}));

    using Ids = std::vector<util::InternId>;
    const auto hosts_of = [&](DomainId d) {
      const auto span = g.domain_hosts(d);
      return Ids(span.begin(), span.end());
    };
    EXPECT_EQ(hosts_of(0), (Ids{0, 1, 2}));
    EXPECT_EQ(hosts_of(1), (Ids{0, 1}));
    EXPECT_EQ(hosts_of(2), (Ids{2}));

    struct Expected {
      HostId host;
      DomainId domain;
      std::vector<util::TimePoint> times;
      Ids uas;
      bool empty_ua;
    };
    const Expected edges[] = {
        {0, 0, {50, 60}, {0, 1}, false}, {0, 1, {5, 30}, {1, 0}, false},
        {1, 0, {10}, {2}, false},        {1, 1, {40, 70}, {1, 2}, false},
        {2, 0, {80}, {0}, false},        {2, 2, {20}, {}, true},
    };
    std::size_t visited = 0;
    g.for_each_edge([&](HostId h, DomainId d, const EdgeData& e) {
      ASSERT_LT(visited, std::size(edges));
      const Expected& want = edges[visited++];
      EXPECT_EQ(h, want.host);
      EXPECT_EQ(d, want.domain);
      EXPECT_EQ(owned(e.times), want.times);
      EXPECT_EQ(owned(e.user_agents), want.uas);
      EXPECT_EQ(e.any_empty_ua, want.empty_ua);
    });
    EXPECT_EQ(visited, std::size(edges));
  };

  DayGraph sequential;
  for (const auto& ev : stream) sequential.add_event(ev);
  sequential.finalize();
  {
    SCOPED_TRACE("add_event");
    check(sequential);
  }

  WindowDictionary dictionary;
  std::vector<SealedSegment> segments;
  for (const std::size_t begin : {0u, 3u, 6u}) {
    segments.push_back(
        dictionary.seal(std::span(stream).subspan(begin, 3)));
  }
  const SealedSegment* run[] = {&segments[0], &segments[1], &segments[2]};
  DayGraph assembled;
  dictionary.assemble(run, assembled);
  EXPECT_TRUE(assembled.finalized());
  EXPECT_EQ(assembled.ingested_events(), stream.size());
  SCOPED_TRACE("assemble");
  check(assembled);
}

/// Compare two finalized graphs field by field through the public API.
void expect_identical(const DayGraph& a, const DayGraph& b) {
  ASSERT_EQ(a.host_count(), b.host_count());
  ASSERT_EQ(a.domain_count(), b.domain_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (HostId h = 0; h < a.host_count(); ++h) {
    EXPECT_EQ(a.host_name(h), b.host_name(h));
  }
  for (DomainId d = 0; d < a.domain_count(); ++d) {
    EXPECT_EQ(a.domain_name(d), b.domain_name(d));
    const auto ips_a = a.domain_ips(d);
    const auto ips_b = b.domain_ips(d);
    ASSERT_EQ(std::vector<util::Ipv4>(ips_a.begin(), ips_a.end()),
              std::vector<util::Ipv4>(ips_b.begin(), ips_b.end()));
  }
  a.for_each_edge([&](HostId h, DomainId d, const EdgeData& ea) {
    const EdgeData* eb = b.edge(h, d);
    ASSERT_NE(eb, nullptr);
    EXPECT_EQ(owned(ea.times), owned(eb->times));
    EXPECT_EQ(owned(ea.user_agents), owned(eb->user_agents));
    for (const UaId ua : ea.user_agents) {
      EXPECT_EQ(a.ua_name(ua), b.ua_name(ua));
    }
    EXPECT_EQ(ea.any_referer, eb->any_referer);
    EXPECT_EQ(ea.any_empty_ua, eb->any_empty_ua);
  });
}

std::vector<logs::ConnEvent> slice_events(int begin, int end) {
  std::vector<logs::ConnEvent> events;
  for (int i = begin; i < end; ++i) {
    auto ev = event(2000 - i, "host" + std::to_string(i % 7),
                    "dom" + std::to_string(i % 5) + ".com",
                    i % 3 == 0 ? "UA-" + std::to_string(i % 4) : "",
                    i % 2 == 0);
    ev.dest_ip = util::Ipv4::from_octets(10, 0, static_cast<uint8_t>(i % 3),
                                         static_cast<uint8_t>(i % 2));
    events.push_back(std::move(ev));
  }
  return events;
}

/// Sequential reference: add_event over `events` in order, finalized.
DayGraph sequential_graph(const std::vector<logs::ConnEvent>& events) {
  DayGraph graph;
  for (const auto& ev : events) graph.add_event(ev);
  graph.finalize();
  return graph;
}

// Assembling any contiguous run of sealed segments must be
// indistinguishable from replaying the run's events in order — growing
// runs, sliding runs and one recycled output graph alike, with
// timestamps running backwards across segment boundaries (slice_events
// counts down) so every edge's runs arrive out of order.
TEST(DayGraphTest, AssemblyMatchesSequentialReplay) {
  const int bounds[] = {0, 25, 40, 60, 61, 90};
  WindowDictionary dictionary;
  std::vector<SealedSegment> segments;
  for (std::size_t s = 0; s + 1 < std::size(bounds); ++s) {
    segments.push_back(
        dictionary.seal(slice_events(bounds[s], bounds[s + 1])));
  }
  DayGraph recycled;
  for (std::size_t first = 0; first < segments.size(); ++first) {
    for (std::size_t last = first + 1; last <= segments.size(); ++last) {
      SCOPED_TRACE("segments [" + std::to_string(first) + ", " +
                   std::to_string(last) + ")");
      std::vector<const SealedSegment*> run;
      for (std::size_t s = first; s < last; ++s) run.push_back(&segments[s]);
      dictionary.assemble(run, recycled);
      const DayGraph reference =
          sequential_graph(slice_events(bounds[first], bounds[last]));
      EXPECT_EQ(recycled.ingested_events(), reference.ingested_events());
      expect_identical(recycled, reference);
      // finalize() on an assembled graph is a no-op.
      recycled.finalize();
      expect_identical(recycled, reference);
    }
  }
}

// Releasing segments and compacting keeps only the entries the remaining
// segments reference, and assembly over the rewritten segments is
// unchanged.
TEST(DayGraphTest, CompactionKeepsLiveSegmentsIntact) {
  WindowDictionary dictionary;
  SealedSegment old_names = dictionary.seal(slice_events(0, 30));
  std::vector<logs::ConnEvent> fresh;
  for (int i = 0; i < 12; ++i) {
    auto ev = event(100 + i, "fresh-host" + std::to_string(i % 4),
                    "fresh" + std::to_string(i % 3) + ".com",
                    "Fresh-UA" + std::to_string(i % 2));
    fresh.push_back(std::move(ev));
  }
  SealedSegment kept = dictionary.seal(fresh);
  EXPECT_EQ(dictionary.size(), dictionary.live());

  dictionary.release(old_names);
  EXPECT_GT(dictionary.size(), dictionary.live());
  SealedSegment* live[] = {&kept};
  dictionary.compact(live);
  // 4 hosts + 3 domains + 2 UAs + 12 distinct (host, domain) edges.
  EXPECT_EQ(dictionary.size(), 4u + 3u + 2u + 12u);
  EXPECT_EQ(dictionary.size(), dictionary.live());

  const SealedSegment* run[] = {&kept};
  DayGraph assembled;
  dictionary.assemble(run, assembled);
  expect_identical(assembled, sequential_graph(fresh));

  // Names released earlier intern afresh and assemble correctly too.
  SealedSegment again = dictionary.seal(slice_events(0, 30));
  const SealedSegment* both[] = {&kept, &again};
  dictionary.assemble(both, assembled);
  std::vector<logs::ConnEvent> all = fresh;
  for (const auto& ev : slice_events(0, 30)) all.push_back(ev);
  expect_identical(assembled, sequential_graph(all));
}

// One edge's payload arrives over three ingest chunks: UAs A, B, A (the
// repeat matches neither the edge's last UA nor adds a pair) and times out
// of order within and across chunks. The graph is the same whether the
// events come in three chunks, one chunk, or as three sealed segments.
TEST(DayGraphTest, EdgePayloadsAcrossChunks) {
  const std::vector<logs::ConnEvent> events = {
      event(300, "h1", "a.com", "UA-A"), event(100, "h1", "a.com", "UA-A"),
      event(250, "h2", "a.com", "UA-B"), event(200, "h1", "a.com", "UA-B"),
      event(50, "h1", "a.com", "UA-B", true), event(400, "h1", "a.com", "UA-A"),
      event(150, "h1", "a.com", "")};
  const std::span<const logs::ConnEvent> all(events);
  const std::span<const logs::ConnEvent> chunks[] = {
      all.subspan(0, 2), all.subspan(2, 3), all.subspan(5)};

  DayGraph chunked;
  for (const auto chunk : chunks) chunked.add_events(chunk);
  chunked.finalize();
  EXPECT_EQ(chunked.ingested_events(), events.size());
  const EdgeData* edge = chunked.edge(chunked.find_host("h1"),
                                      chunked.find_domain("a.com"));
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(owned(edge->times),
            (std::vector<util::TimePoint>{50, 100, 150, 200, 300, 400}));
  ASSERT_EQ(edge->user_agents.size(), 2u);
  EXPECT_EQ(chunked.ua_name(edge->user_agents[0]), "UA-A");
  EXPECT_EQ(chunked.ua_name(edge->user_agents[1]), "UA-B");
  EXPECT_TRUE(edge->any_referer);
  EXPECT_TRUE(edge->any_empty_ua);

  DayGraph whole;
  whole.add_events(events);
  whole.finalize();
  {
    SCOPED_TRACE("one chunk");
    expect_identical(chunked, whole);
  }

  WindowDictionary dictionary;
  std::vector<SealedSegment> segments;
  for (const auto chunk : chunks) segments.push_back(dictionary.seal(chunk));
  const SealedSegment* run[] = {&segments[0], &segments[1], &segments[2]};
  DayGraph assembled;
  dictionary.assemble(run, assembled);
  SCOPED_TRACE("seal + assemble");
  expect_identical(chunked, assembled);
}

TEST(DayGraphTest, LargeGraphConsistency) {
  DayGraph graph;
  for (int h = 0; h < 100; ++h) {
    for (int d = 0; d < 20; ++d) {
      if ((h + d) % 3 == 0) {
        graph.add_event(event(h * 100 + d, "host" + std::to_string(h),
                              "dom" + std::to_string(d) + ".com"));
      }
    }
  }
  graph.finalize();
  std::size_t total_from_domains = 0;
  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    total_from_domains += graph.domain_hosts(d).size();
  }
  std::size_t total_from_hosts = 0;
  for (HostId h = 0; h < graph.host_count(); ++h) {
    total_from_hosts += graph.host_domains(h).size();
  }
  EXPECT_EQ(total_from_domains, graph.edge_count());
  EXPECT_EQ(total_from_hosts, graph.edge_count());
}

}  // namespace
}  // namespace eid::graph
