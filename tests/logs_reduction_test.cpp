#include "logs/reduction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace eid::logs {
namespace {

DnsRecord dns(util::TimePoint ts, std::string src, std::string domain,
              DnsType type = DnsType::A) {
  DnsRecord rec;
  rec.ts = ts;
  rec.src = std::move(src);
  rec.domain = std::move(domain);
  rec.type = type;
  rec.response_ip = util::Ipv4::from_octets(1, 2, 3, 4);
  return rec;
}

TEST(DnsReductionTest, KeepsOnlyARecords) {
  std::vector<DnsRecord> records = {
      dns(10, "h1", "a.example.com"),
      dns(20, "h1", "a.example.com", DnsType::AAAA),
      dns(30, "h1", "a.example.com", DnsType::TXT),
  };
  DnsReductionStats stats;
  const auto events = reduce_dns(records, DnsReductionConfig{}, &stats);
  EXPECT_EQ(stats.total_records, 3u);
  EXPECT_EQ(stats.a_records, 1u);
  EXPECT_EQ(events.size(), 1u);
}

TEST(DnsReductionTest, FiltersInternalQueries) {
  DnsReductionConfig config;
  config.internal_suffixes = {"corp.internal"};
  config.fold_level = FoldLevel::ThirdLevel;
  std::vector<DnsRecord> records = {
      dns(10, "h1", "mail.corp.internal"),
      dns(20, "h1", "wiki.corp.internal"),
      dns(30, "h1", "www.example.com"),
  };
  DnsReductionStats stats;
  const auto events = reduce_dns(records, config, &stats);
  EXPECT_EQ(stats.after_internal_query_filter, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].domain, "www.example.com");
}

TEST(DnsReductionTest, FiltersInternalServers) {
  DnsReductionConfig config;
  config.internal_servers = {"dns-relay"};
  std::vector<DnsRecord> records = {
      dns(10, "dns-relay", "telemetry.example.com"),
      dns(20, "h1", "www.example.com"),
  };
  DnsReductionStats stats;
  const auto events = reduce_dns(records, config, &stats);
  EXPECT_EQ(stats.after_server_filter, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].host, "h1");
}

TEST(DnsReductionTest, CountsDistinctDomainsPerStage) {
  DnsReductionConfig config;
  config.internal_suffixes = {"corp.internal"};
  config.internal_servers = {"srv"};
  config.fold_level = FoldLevel::SecondLevel;
  std::vector<DnsRecord> records = {
      dns(10, "h1", "a.corp.internal"),   // internal
      dns(20, "h1", "one.com"),
      dns(30, "h2", "one.com"),           // same folded domain
      dns(40, "srv", "server-only.com"),  // server source
      dns(50, "h1", "two.com"),
  };
  DnsReductionStats stats;
  const auto events = reduce_dns(records, config, &stats);
  EXPECT_EQ(stats.domains_all, 4u);                   // internal + 3 external
  EXPECT_EQ(stats.domains_after_internal_filter, 3u); // one, server-only, two
  EXPECT_EQ(stats.domains_after_server_filter, 2u);   // one, two
  EXPECT_EQ(stats.hosts_after_server_filter, 2u);
  EXPECT_EQ(events.size(), 3u);
}

TEST(DnsReductionTest, FoldsDomains) {
  std::vector<DnsRecord> records = {dns(10, "h1", "deep.sub.example.com")};
  const auto events = reduce_dns(records, DnsReductionConfig{.fold_level =
                                                             FoldLevel::SecondLevel});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].domain, "example.com");
}

TEST(DnsReductionTest, OutputSortedByTime) {
  std::vector<DnsRecord> records = {
      dns(300, "h1", "b.com"), dns(100, "h2", "a.com"), dns(200, "h3", "c.com")};
  const auto events = reduce_dns(records, DnsReductionConfig{});
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LE(events[0].ts, events[1].ts);
  EXPECT_LE(events[1].ts, events[2].ts);
}

ProxyRecord proxy(util::TimePoint ts, std::string src_ip, std::string domain) {
  ProxyRecord rec;
  rec.ts = ts;
  rec.collector = "px-1";
  rec.src_ip = std::move(src_ip);
  rec.domain = std::move(domain);
  rec.dest_ip = util::Ipv4::from_octets(5, 6, 7, 8);
  rec.user_agent = "UA";
  rec.referer = "ref.example.com";
  return rec;
}

TEST(ProxyReductionTest, DropsIpLiteralDestinations) {
  DhcpTable leases;
  std::vector<ProxyRecord> records = {proxy(10, "10.0.0.1", "93.184.216.34"),
                                      proxy(20, "10.0.0.1", "example.com")};
  ProxyReductionStats stats;
  const auto events =
      reduce_proxy(records, leases, ProxyReductionConfig{}, &stats);
  EXPECT_EQ(stats.ip_literal_destinations, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].domain, "example.com");
}

TEST(ProxyReductionTest, NormalizesCollectorTimezones) {
  DhcpTable leases;
  ProxyReductionConfig config;
  config.collector_utc_offsets = {{"px-east", 3600}};
  ProxyRecord rec = proxy(10000, "10.0.0.1", "example.com");
  rec.collector = "px-east";
  const auto events = reduce_proxy({{rec}}, leases, config);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts, 10000 - 3600);
}

TEST(ProxyReductionTest, DuplicateCollectorKeepsItsFirstOffset) {
  DhcpTable leases;
  ProxyReductionConfig config;
  config.collector_utc_offsets = {{"px-east", 3600}, {"px-east", 7200}};
  ProxyRecord rec = proxy(10000, "10.0.0.1", "example.com");
  rec.collector = "px-east";
  const auto events = reduce_proxy({{rec}}, leases, config);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts, 10000 - 3600);
}

TEST(ProxyReductionTest, CollectorOffsetSaturatesAtTheTimestampRange) {
  // Any 64-bit timestamp parses; normalizing one at the edge of the range
  // clamps instead of overflowing.
  DhcpTable leases;
  ProxyReductionConfig config;
  config.collector_utc_offsets = {{"px-west", -18000}, {"px-east", 3600}};
  ProxyRecord late = proxy(std::numeric_limits<util::TimePoint>::max() - 5,
                           "10.0.0.1", "example.com");
  late.collector = "px-west";
  ProxyRecord early = proxy(std::numeric_limits<util::TimePoint>::min() + 5,
                            "10.0.0.1", "example.com");
  early.collector = "px-east";
  const auto events = reduce_proxy({{late, early}}, leases, config);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, std::numeric_limits<util::TimePoint>::min());
  EXPECT_EQ(events[1].ts, std::numeric_limits<util::TimePoint>::max());
}

TEST(ProxyReductionTest, ResolvesDhcpSources) {
  DhcpTable leases;
  leases.add_lease({"10.0.0.1", 0, 100000, "ws-7.corp"});
  std::vector<ProxyRecord> records = {proxy(50, "10.0.0.1", "example.com")};
  ProxyReductionStats stats;
  const auto events =
      reduce_proxy(records, leases, ProxyReductionConfig{}, &stats);
  EXPECT_EQ(stats.resolved_sources, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].host, "ws-7.corp");
}

TEST(ProxyReductionTest, MemoizedLeasesFollowTimeAndNewLeases) {
  // One reducer, so each probe may reuse the source's remembered lease
  // answer; every answer must still be the table's at that moment.
  DhcpTable leases;
  leases.add_lease({"10.0.0.1", 100, 200, "ws-a.corp"});
  leases.add_lease({"10.0.0.1", 300, 400, "ws-b.corp"});
  ProxyReducer reducer(leases, ProxyReductionConfig{});
  ProxyFields fields;
  fields.src_ip = "10.0.0.1";
  fields.domain = "Example.COM";
  ConnEvent slot;
  const auto host_at = [&](util::TimePoint ts) {
    fields.ts = ts;
    EXPECT_TRUE(is_kept(reducer.reduce(fields, slot)));
    EXPECT_EQ(slot.domain, "example.com");
    return slot.host;
  };
  EXPECT_EQ(host_at(150), "ws-a.corp");
  EXPECT_EQ(host_at(199), "ws-a.corp");
  EXPECT_EQ(host_at(200), "10.0.0.1");  // the gap
  EXPECT_EQ(host_at(299), "10.0.0.1");
  EXPECT_EQ(host_at(300), "ws-b.corp");
  EXPECT_EQ(host_at(99), "10.0.0.1");   // back before the first lease
  EXPECT_EQ(host_at(150), "ws-a.corp");
  // A lease added between probes, inside the remembered answer's span.
  leases.add_lease({"10.0.0.1", 140, 160, "ws-c.corp"});
  EXPECT_EQ(host_at(150), "ws-c.corp");
  leases.add_lease({"10.0.0.1", 220, 260, "ws-d.corp"});
  EXPECT_EQ(host_at(230), "ws-d.corp");
  EXPECT_EQ(host_at(210), "10.0.0.1");
}

TEST(ProxyReductionTest, MemoPastItsCapKeepsReducing) {
  // More distinct destinations and sources than a memo holds: the full
  // memo is emptied and refilled, and every answer stays right.
  DhcpTable leases;
  leases.add_lease({"10.0.0.7", 0, 1000, "ws-7.corp"});
  ProxyReducer reducer(leases, ProxyReductionConfig{});
  ProxyFields fields;
  ConnEvent slot;
  for (std::size_t i = 0; i < ProxyReducer::kMemoCap + 50; ++i) {
    const std::string domain = "a.Site" + std::to_string(i) + ".COM";
    const std::string src = "10.1." + std::to_string(i / 250) + "." +
                            std::to_string(i % 250);
    fields.ts = static_cast<util::TimePoint>(i % 1000);
    fields.domain = domain;
    fields.src_ip = i % 3 == 0 ? std::string_view("10.0.0.7") : src;
    ASSERT_TRUE(is_kept(reducer.reduce(fields, slot))) << i;
    ASSERT_EQ(slot.domain, "site" + std::to_string(i) + ".com") << i;
    ASSERT_EQ(slot.host, i % 3 == 0 ? "ws-7.corp" : src) << i;
  }
  fields.domain = "a.Site0.COM";
  fields.src_ip = "10.0.0.7";
  fields.ts = 5;
  ASSERT_TRUE(is_kept(reducer.reduce(fields, slot)));
  EXPECT_EQ(slot.domain, "site0.com");
  EXPECT_EQ(slot.host, "ws-7.corp");
  fields.domain = "1.2.3.4";
  EXPECT_EQ(reducer.reduce(fields, slot), ProxyOutcome::IpLiteral);
}

TEST(ProxyReductionTest, PrefilledHostnameWins) {
  DhcpTable leases;
  ProxyRecord rec = proxy(50, "10.0.0.1", "example.com");
  rec.hostname = "vpn-user-3.corp";
  const auto events = reduce_proxy({{rec}}, leases, ProxyReductionConfig{});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].host, "vpn-user-3.corp");
}

TEST(ProxyReductionTest, UnresolvedSourceKeptOrDroppedPerConfig) {
  DhcpTable leases;
  std::vector<ProxyRecord> records = {proxy(50, "10.9.9.9", "example.com")};
  ProxyReductionConfig keep;
  ProxyReductionStats stats;
  auto events = reduce_proxy(records, leases, keep, &stats);
  EXPECT_EQ(stats.unresolved_sources, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].host, "10.9.9.9");

  ProxyReductionConfig drop;
  drop.keep_unresolved_sources = false;
  events = reduce_proxy(records, leases, drop, &stats);
  EXPECT_TRUE(events.empty());
}

TEST(ProxyReductionTest, CarriesHttpContext) {
  DhcpTable leases;
  ProxyRecord with_ref = proxy(10, "10.0.0.1", "example.com");
  ProxyRecord without_ref = proxy(20, "10.0.0.1", "other.com");
  without_ref.referer.clear();
  without_ref.user_agent.clear();
  const auto events =
      reduce_proxy({{with_ref, without_ref}}, leases, ProxyReductionConfig{});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].has_referer);
  EXPECT_TRUE(events[0].has_http_context);
  EXPECT_EQ(events[0].user_agent, "UA");
  EXPECT_FALSE(events[1].has_referer);
  EXPECT_TRUE(events[1].user_agent.empty());
}

TEST(ProxyReductionTest, ReducerOverwritesEveryFieldOfAReusedSlot) {
  DhcpTable leases;
  const ProxyReductionConfig config;
  ProxyReducer reducer(leases, config);
  ConnEvent slot;
  slot.ts = 99;
  slot.host = "stale-host-with-a-long-name.corp";
  slot.domain = "stale.example.org";
  slot.dest_ip = util::Ipv4::from_octets(9, 9, 9, 9);
  slot.user_agent = "stale UA";
  slot.has_referer = true;
  ProxyFields fields;
  fields.ts = 7;
  fields.src_ip = "10.0.0.3";
  fields.domain = "WWW.Example.COM";
  EXPECT_EQ(reducer.reduce(fields, slot), ProxyOutcome::KeptUnresolved);
  EXPECT_EQ(slot.ts, 7);
  EXPECT_EQ(slot.host, "10.0.0.3");
  EXPECT_EQ(slot.domain, "example.com");
  EXPECT_FALSE(slot.dest_ip.has_value());
  EXPECT_TRUE(slot.user_agent.empty());
  EXPECT_FALSE(slot.has_referer);
  EXPECT_TRUE(slot.has_http_context);

  // A DNS reduction into the same slot clears the HTTP context.
  const DnsReductionConfig dns_config;
  DnsFields dns_fields;
  dns_fields.ts = 8;
  dns_fields.src = "h9";
  dns_fields.domain = "a.b.c.example.com";
  EXPECT_EQ(DnsReducer(dns_config).reduce(dns_fields, slot), DnsOutcome::Kept);
  EXPECT_EQ(slot.host, "h9");
  EXPECT_EQ(slot.domain, "c.example.com");
  EXPECT_TRUE(slot.user_agent.empty());
  EXPECT_FALSE(slot.has_referer);
  EXPECT_FALSE(slot.has_http_context);
}

ConnEvent at(util::TimePoint ts, int tag) {
  ConnEvent ev;
  ev.ts = ts;
  ev.host = "h" + std::to_string(tag);
  return ev;
}

TEST(SortByTimeTest, StableAndReusesItsKeys) {
  std::vector<ConnEvent> events = {at(5, 0), at(3, 1), at(5, 2), at(1, 3),
                                   at(3, 4), at(9, 5), at(1, 6)};
  std::vector<TimeKey> keys;
  sort_by_time(events, keys);
  const std::vector<std::string> order = {"h3", "h6", "h1", "h4", "h0", "h2", "h5"};
  ASSERT_EQ(events.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(events[i].host, order[i]);

  // Sorted input is left as it is; a shorter span reuses the same keys.
  sort_by_time(events, keys);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(events[i].host, order[i]);
  std::vector<ConnEvent> two = {at(2, 0), at(1, 1)};
  sort_by_time(two, keys);
  EXPECT_EQ(two[0].host, "h1");
  EXPECT_EQ(two[1].host, "h0");
}

/// sort_by_time against std::stable_sort by ts on a copy; each event's
/// host names its input position, so a tie out of order shows.
void expect_stable_sorted(std::vector<util::TimePoint> stamps,
                          std::vector<TimeKey>& keys) {
  std::vector<ConnEvent> events;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    events.push_back(at(stamps[i], static_cast<int>(i)));
  }
  std::vector<ConnEvent> expected = events;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const ConnEvent& a, const ConnEvent& b) {
                     return a.ts < b.ts;
                   });
  sort_by_time(events, keys);
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(events[i].ts, expected[i].ts) << i;
    ASSERT_EQ(events[i].host, expected[i].host) << i;
  }
}

TEST(SortByTimeTest, MatchesStableSortOnEverySpan) {
  using Limits = std::numeric_limits<util::TimePoint>;
  util::Rng rng(0x5027);
  std::vector<TimeKey> keys;  // reused across every case
  // Spans of one digit, a day, just under and over two digits (2^22 s),
  // and three to six digits; offsets put some below zero.
  const std::vector<std::int64_t> spans = {
      0,        1,        2047,          2048,          86400,
      4194303,  4194304,  40000000,      std::int64_t{1} << 40,
      std::int64_t{1} << 55, std::int64_t{1} << 61};
  for (const std::int64_t span : spans) {
    for (const std::int64_t base : {std::int64_t{1391212800}, -span / 2 - 7}) {
      for (const std::size_t n : {std::size_t{2}, std::size_t{17},
                                  std::size_t{4096}}) {
        SCOPED_TRACE("span " + std::to_string(span) + " base " +
                     std::to_string(base) + " n " + std::to_string(n));
        std::vector<util::TimePoint> stamps(n);
        for (auto& ts : stamps) ts = base + rng.uniform_int(0, span);
        expect_stable_sorted(stamps, keys);
        // Few distinct values: long runs of ties.
        for (auto& ts : stamps) ts = base + span * rng.uniform_int(0, 3) / 3;
        expect_stable_sorted(stamps, keys);
      }
    }
  }

  // The whole 64-bit range, with its two ends.
  std::vector<util::TimePoint> extremes(3000);
  for (auto& ts : extremes) ts = static_cast<util::TimePoint>(rng.next_u64());
  for (std::size_t i = 0; i < extremes.size(); i += 97) {
    extremes[i] = i % 2 == 0 ? Limits::min() : Limits::max();
  }
  expect_stable_sorted(extremes, keys);
  expect_stable_sorted({Limits::max(), Limits::min(), Limits::max(), 0,
                        Limits::min(), -1, 1},
                       keys);

  // All-equal and already-sorted chunks (the early return), and one
  // sorted chunk with a single event out of place.
  expect_stable_sorted(std::vector<util::TimePoint>(500, -42), keys);
  std::vector<util::TimePoint> sorted(1000);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<util::TimePoint>(i / 3) - 100;
  }
  expect_stable_sorted(sorted, keys);
  std::swap(sorted[10], sorted[900]);
  expect_stable_sorted(sorted, keys);
  expect_stable_sorted({}, keys);
  expect_stable_sorted({5}, keys);
}

}  // namespace
}  // namespace eid::logs
