#include "profile/top_sites.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/pipeline.h"
#include "test_helpers.h"

namespace eid::profile {
namespace {

TEST(TopSitesTest, AddAndContains) {
  TopSitesList list;
  list.add("Google.COM ");
  EXPECT_TRUE(list.contains("google.com"));
  EXPECT_FALSE(list.contains("evil.com"));
  EXPECT_EQ(list.size(), 1u);
}

TEST(TopSitesTest, LoadPlainAndAlexaCsvShapes) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("eid-topsites-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = dir / "top.csv";
  {
    std::ofstream out(path);
    out << "# top sites snapshot\n";
    out << "1,google.com\n";
    out << "2,youtube.com\n";
    out << "plainsite.net\n";
    out << "\n";
  }
  TopSitesList list;
  EXPECT_EQ(list.load(path), 3u);
  EXPECT_TRUE(list.contains("google.com"));
  EXPECT_TRUE(list.contains("youtube.com"));
  EXPECT_TRUE(list.contains("plainsite.net"));
  std::filesystem::remove_all(dir);
}

TEST(TopSitesTest, LoadMissingFileReturnsZero) {
  TopSitesList list;
  EXPECT_EQ(list.load("/no/such/file.csv"), 0u);
}

TEST(TopSitesTest, FilterPreservesOrderOfSurvivors) {
  test::DayBuilder builder;
  builder.visit("h1", "keep1.com", 100);
  builder.visit("h1", "drop.com", 200);
  builder.visit("h1", "keep2.com", 300);
  const graph::DayGraph graph = builder.build();
  TopSitesList list;
  list.add("drop.com");
  const std::vector<graph::DomainId> rare = {
      graph.find_domain("keep1.com"), graph.find_domain("drop.com"),
      graph.find_domain("keep2.com")};
  const auto filtered = filter_top_sites(graph, rare, list);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(graph.domain_name(filtered[0]), "keep1.com");
  EXPECT_EQ(graph.domain_name(filtered[1]), "keep2.com");
}

TEST(TopSitesTest, PipelineExcludesWhitelistedRareDomains) {
  test::MapWhois whois;
  api::Detector detector(core::PipelineConfig{}, whois);
  test::DayBuilder builder;
  builder.visit("h1", "fresh-cdn.com", 1000);
  builder.visit("h1", "fresh-evil.ru", 1010);
  const auto& events = builder.events();

  // Without the whitelist both fresh domains are rare.
  EXPECT_EQ(test::analyze_events(detector, events, 100).rare.size(), 2u);

  TopSitesList list;
  list.add("fresh-cdn.com");  // globally popular, new to this enterprise
  detector.set_top_sites(&list);
  const core::DayAnalysis filtered = test::analyze_events(detector, events, 100);
  ASSERT_EQ(filtered.rare.size(), 1u);
  EXPECT_TRUE(
      filtered.rare.contains(filtered.graph.find_domain("fresh-evil.ru")));

  detector.set_top_sites(nullptr);
  EXPECT_EQ(test::analyze_events(detector, events, 100).rare.size(), 2u);
}

}  // namespace
}  // namespace eid::profile
