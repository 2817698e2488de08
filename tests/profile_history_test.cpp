#include "profile/domain_history.h"
#include "profile/ua_history.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "test_helpers.h"

namespace eid::profile {
namespace {

logs::ConnEvent http_event(std::string host, std::string domain, std::string ua) {
  logs::ConnEvent ev;
  ev.host = std::move(host);
  ev.domain = std::move(domain);
  ev.user_agent = std::move(ua);
  ev.has_http_context = true;
  return ev;
}

TEST(DomainHistoryTest, NewUntilUpdated) {
  DomainHistory history;
  EXPECT_TRUE(history.is_new("example.com"));
  history.update({"example.com"});
  EXPECT_FALSE(history.is_new("example.com"));
  EXPECT_TRUE(history.is_new("other.com"));
  EXPECT_EQ(history.days_ingested(), 1u);
}

TEST(DomainHistoryTest, IncrementalGrowth) {
  DomainHistory history;
  history.update({"a.com", "b.com"});
  history.update({"b.com", "c.com"});
  EXPECT_EQ(history.size(), 3u);
  EXPECT_FALSE(history.is_new("a.com"));
  EXPECT_FALSE(history.is_new("c.com"));
}

// The rt window caches is_new answers per generation, so a generation
// must never be handed out twice: not by any mutator, and not by another
// object that replaces this one (checkpoint restore move-assigns a whole
// history, which must not repeat a value a cache already holds).
TEST(DomainHistoryTest, EveryMutationYieldsAnUnusedGeneration) {
  std::set<std::uint64_t> seen;
  const auto fresh = [&seen](std::uint64_t generation) {
    return seen.insert(generation).second;
  };
  DomainHistory history;
  EXPECT_TRUE(fresh(history.generation()));
  history.update({"a.com"});
  EXPECT_TRUE(fresh(history.generation()));
  history.update_one("b.com");
  EXPECT_TRUE(fresh(history.generation()));
  const std::vector<std::string> delta = {"c.com"};
  history.absorb(delta, 4);
  EXPECT_TRUE(fresh(history.generation()));
  DomainHistory::DomainSet restored;
  restored.insert("a.com");
  history.restore(std::move(restored), 1);
  EXPECT_TRUE(fresh(history.generation()));

  // A smaller history built elsewhere replaces this one wholesale.
  DomainHistory smaller;
  EXPECT_TRUE(fresh(smaller.generation()));
  smaller.update({"z.com"});
  const std::uint64_t replacement = smaller.generation();
  EXPECT_TRUE(fresh(replacement));
  history = std::move(smaller);
  EXPECT_EQ(history.generation(), replacement);
  EXPECT_TRUE(history.is_new("a.com"));
  history.update({"a.com"});
  EXPECT_TRUE(fresh(history.generation()));

  // A copy shares its source's contents, so it shares the generation.
  const DomainHistory copy = history;
  EXPECT_EQ(copy.generation(), history.generation());
}

graph::DayGraph graph_with(
    const std::vector<std::pair<std::string, std::string>>& edges) {
  graph::DayGraph graph;
  util::TimePoint ts = 0;
  for (const auto& [host, domain] : edges) {
    logs::ConnEvent ev;
    ev.ts = ++ts;
    ev.host = host;
    ev.domain = domain;
    graph.add_event(ev);
  }
  graph.finalize();
  return graph;
}

TEST(RareExtractionTest, NewAndUnpopularOnly) {
  DomainHistory history;
  history.update({"known.com"});
  // new-popular.com is contacted by 10 hosts (threshold), so not rare.
  std::vector<std::pair<std::string, std::string>> edges;
  for (int i = 0; i < 10; ++i) {
    edges.emplace_back("h" + std::to_string(i), "new-popular.com");
  }
  edges.emplace_back("h0", "known.com");
  edges.emplace_back("h1", "rare1.com");
  edges.emplace_back("h1", "rare2.com");
  edges.emplace_back("h2", "rare2.com");
  const graph::DayGraph graph = graph_with(edges);
  const RareExtraction rare = extract_rare_destinations(graph, history, 10);
  EXPECT_EQ(rare.total_domains, 4u);
  EXPECT_EQ(rare.new_domains, 3u);  // new-popular, rare1, rare2
  ASSERT_EQ(rare.rare_domains.size(), 2u);
  std::vector<std::string> names;
  for (const auto id : rare.rare_domains) names.push_back(graph.domain_name(id));
  EXPECT_NE(std::find(names.begin(), names.end(), "rare1.com"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "rare2.com"), names.end());
}

TEST(RareExtractionTest, ThresholdIsStrict) {
  DomainHistory history;
  std::vector<std::pair<std::string, std::string>> edges;
  for (int i = 0; i < 9; ++i) edges.emplace_back("h" + std::to_string(i), "d.com");
  const graph::DayGraph graph = graph_with(edges);
  // 9 hosts < threshold 10 => rare; with threshold 9 => not rare.
  EXPECT_EQ(extract_rare_destinations(graph, history, 10).rare_domains.size(), 1u);
  EXPECT_EQ(extract_rare_destinations(graph, history, 9).rare_domains.size(), 0u);
}

TEST(RareExtractionTest, UpdateHistoryMakesTodayOld) {
  DomainHistory history;
  const graph::DayGraph graph = graph_with({{"h1", "fresh.com"}});
  EXPECT_EQ(extract_rare_destinations(graph, history).rare_domains.size(), 1u);
  update_history(history, graph);
  EXPECT_EQ(extract_rare_destinations(graph, history).rare_domains.size(), 0u);
}

TEST(UaHistoryTest, UnknownUaIsRare) {
  UaHistory history(3);
  EXPECT_TRUE(history.is_rare("NeverSeen/1.0"));
  EXPECT_EQ(history.host_count("NeverSeen/1.0"), 0u);
}

TEST(UaHistoryTest, BecomesPopularAtThreshold) {
  UaHistory history(3);
  history.observe("Common/1.0", "h1");
  EXPECT_TRUE(history.is_rare("Common/1.0"));
  history.observe("Common/1.0", "h2");
  EXPECT_TRUE(history.is_rare("Common/1.0"));
  history.observe("Common/1.0", "h3");
  EXPECT_FALSE(history.is_rare("Common/1.0"));
  EXPECT_EQ(history.host_count("Common/1.0"), 3u);
}

TEST(UaHistoryTest, RepeatObservationsFromSameHostDoNotCount) {
  UaHistory history(3);
  for (int i = 0; i < 10; ++i) history.observe("Solo/1.0", "h1");
  EXPECT_TRUE(history.is_rare("Solo/1.0"));
  EXPECT_EQ(history.host_count("Solo/1.0"), 1u);
}

TEST(UaHistoryTest, EmptyUaIgnored) {
  UaHistory history(3);
  history.observe("", "h1");
  EXPECT_EQ(history.distinct_uas(), 0u);
}

TEST(UaHistoryTest, DayCommitIngestsHttpEventsOnly) {
  test::MapWhois whois;
  core::PipelineConfig config;
  config.ua_rare_threshold = 3;  // a third host would flip UA-x popular
  api::Detector detector(config, whois);
  std::vector<logs::ConnEvent> events = {
      http_event("h1", "a.com", "UA-x"),
      http_event("h2", "a.com", "UA-x"),
  };
  logs::ConnEvent dns_event;
  dns_event.host = "h3";
  dns_event.domain = "a.com";
  dns_event.user_agent = "UA-x";  // bogus: DNS events carry no UA context
  dns_event.has_http_context = false;
  events.push_back(dns_event);
  test::run_events(detector, events, 100);
  const UaHistory& history = detector.pipeline().ua_history();
  EXPECT_EQ(history.host_count("UA-x"), 2u);
  EXPECT_TRUE(history.is_rare("UA-x"));
}

TEST(UaHistoryTest, PopularStaysPopular) {
  UaHistory history(2);
  history.observe("UA", "h1");
  history.observe("UA", "h2");
  ASSERT_FALSE(history.is_rare("UA"));
  history.observe("UA", "h3");  // no-op path once popular
  EXPECT_FALSE(history.is_rare("UA"));
  EXPECT_EQ(history.host_count("UA"), 2u);  // saturated at threshold
}

}  // namespace
}  // namespace eid::profile
