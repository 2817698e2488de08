#include "graph/day_graph.h"

#include <gtest/gtest.h>

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
// event stream, whether the graph is built event by event or by absorbing
// independently built slices. Expected values are written out by hand.
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
      EXPECT_EQ(e.times, want.times);
      EXPECT_EQ(e.user_agents, want.uas);
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

  DayGraph merged;
  for (const std::size_t begin : {0u, 3u, 6u}) {
    DayGraph slice;
    for (std::size_t i = begin; i < begin + 3; ++i) slice.add_event(stream[i]);
    merged.absorb(slice);
  }
  merged.finalize();
  SCOPED_TRACE("absorb");
  check(merged);
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
    EXPECT_EQ(ea.times, eb->times);
    EXPECT_EQ(ea.user_agents, eb->user_agents);
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

// absorb() must be indistinguishable, after finalize, from replaying the
// absorbed slice's events in order — sorted (sealed) and unsorted partials
// alike.
TEST(DayGraphTest, AbsorbMatchesSequentialReplay) {
  for (const bool seal : {false, true}) {
    SCOPED_TRACE("seal " + std::to_string(seal));
    DayGraph sequential;
    for (const auto& ev : slice_events(0, 60)) sequential.add_event(ev);
    sequential.finalize();

    // Three slices built independently, then chained with absorb.
    DayGraph merged;
    for (const int begin : {0, 25, 40}) {
      const int end = begin == 0 ? 25 : begin == 25 ? 40 : 60;
      DayGraph slice;
      for (const auto& ev : slice_events(begin, end)) slice.add_event(ev);
      if (seal) slice.sort_edge_times();
      merged.absorb(slice);
    }
    EXPECT_EQ(merged.ingested_events(), 60u);
    merged.finalize();
    expect_identical(merged, sequential);
  }
}

// finalize_snapshot() must equal finalize() of the same state, leave the
// source graph usable for further growth, and — with a SnapshotCache
// carried across snapshots of the growing graph — stay bit-identical at
// every step. The recycled finalize_snapshot_into() variant must too.
TEST(DayGraphTest, SnapshotMatchesFinalizeAcrossGrowth) {
  DayGraph growing;
  DayGraph::SnapshotCache cache;
  DayGraph recycled;  // reused output container across snapshots
  for (const int end : {20, 35, 60}) {
    SCOPED_TRACE("events " + std::to_string(end));
    const int begin = end == 20 ? 0 : end == 35 ? 20 : 35;
    DayGraph slice;
    for (const auto& ev : slice_events(begin, end)) slice.add_event(ev);
    slice.sort_edge_times();
    growing.absorb(slice);

    // Reference: consuming finalize of an identically-built graph.
    DayGraph reference;
    for (const auto& ev : slice_events(0, end)) reference.add_event(ev);
    reference.finalize(2);

    const DayGraph plain = growing.finalize_snapshot(2);
    const DayGraph cached = growing.finalize_snapshot(2, &cache);
    growing.finalize_snapshot_into(recycled, 2, nullptr);
    EXPECT_FALSE(growing.finalized());
    expect_identical(plain, reference);
    expect_identical(cached, reference);
    expect_identical(recycled, reference);
  }
  // The source still finalizes normally after all the snapshots.
  growing.finalize();
  DayGraph reference;
  for (const auto& ev : slice_events(0, 60)) reference.add_event(ev);
  reference.finalize();
  expect_identical(growing, reference);
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
