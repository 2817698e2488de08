#include "logs/reduction.h"

#include <gtest/gtest.h>

#include <limits>

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
  const ProxyReducer reducer(leases, config);
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

}  // namespace
}  // namespace eid::logs
