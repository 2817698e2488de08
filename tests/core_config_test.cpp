#include "core/config_io.h"

#include <gtest/gtest.h>

namespace eid::core {
namespace {

TEST(ConfigIoTest, ParsesFullDocument) {
  const std::string text = R"(
# comment line
popularity_threshold = 12
ua_rare_threshold = 8
bin_width_seconds = 5
jeffrey_threshold = 0.034
min_intervals = 6
cc_threshold = 0.45
sim_threshold = 0.5
bp_max_iterations = 7
)";
  const ConfigParseResult result = parse_pipeline_config(text);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.unknown_keys.empty());
  EXPECT_EQ(result.config.popularity_threshold, 12u);
  EXPECT_EQ(result.config.ua_rare_threshold, 8u);
  EXPECT_DOUBLE_EQ(result.config.periodicity.bin_width_seconds, 5.0);
  EXPECT_DOUBLE_EQ(result.config.periodicity.jeffrey_threshold, 0.034);
  EXPECT_EQ(result.config.periodicity.min_intervals, 6u);
  EXPECT_DOUBLE_EQ(result.config.cc_threshold, 0.45);
  EXPECT_DOUBLE_EQ(result.config.sim_threshold, 0.5);
  EXPECT_EQ(result.config.bp_max_iterations, 7u);
}

TEST(ConfigIoTest, EmptyDocumentKeepsDefaults) {
  const ConfigParseResult result = parse_pipeline_config("");
  EXPECT_TRUE(result.ok());
  const PipelineConfig defaults;
  EXPECT_EQ(result.config.popularity_threshold, defaults.popularity_threshold);
  EXPECT_DOUBLE_EQ(result.config.cc_threshold, defaults.cc_threshold);
}

TEST(ConfigIoTest, UnknownKeysReportedNotFatal) {
  const ConfigParseResult result =
      parse_pipeline_config("future_knob = 3\ncc_threshold = 0.42\n");
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.unknown_keys.size(), 1u);
  EXPECT_EQ(result.unknown_keys[0], "future_knob");
  EXPECT_DOUBLE_EQ(result.config.cc_threshold, 0.42);
}

TEST(ConfigIoTest, MalformedValuesAreErrors) {
  const ConfigParseResult result = parse_pipeline_config(
      "cc_threshold = not-a-number\n"
      "bin_width_seconds = -5\n"
      "min_intervals = 0\n"
      "line without equals\n"
      // from_chars accepts these spellings; thresholds must be finite.
      "cc_threshold = nan\n"
      "sim_threshold = inf\n"
      "jeffrey_threshold = inf\n"
      "bin_width_seconds = inf\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.errors.size(), 8u);
}

TEST(ConfigIoTest, WhitespaceAndCommentsTolerated) {
  const ConfigParseResult result = parse_pipeline_config(
      "   cc_threshold   =    0.41   \n"
      "\t\n"
      "# jeffrey_threshold = 9.9 (commented out)\n");
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.config.cc_threshold, 0.41);
  const PipelineConfig defaults;
  EXPECT_DOUBLE_EQ(result.config.periodicity.jeffrey_threshold,
                   defaults.periodicity.jeffrey_threshold);
}

TEST(ConfigIoTest, FormatThenParseIsIdentity) {
  PipelineConfig config;
  config.popularity_threshold = 15;
  config.ua_rare_threshold = 4;
  config.periodicity.bin_width_seconds = 20.0;
  config.periodicity.jeffrey_threshold = 0.35;
  config.periodicity.min_intervals = 3;
  config.cc_threshold = 0.48;
  config.sim_threshold = 0.85;
  config.bp_max_iterations = 3;
  const ConfigParseResult result =
      parse_pipeline_config(format_pipeline_config(config));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.config.popularity_threshold, config.popularity_threshold);
  EXPECT_EQ(result.config.ua_rare_threshold, config.ua_rare_threshold);
  EXPECT_DOUBLE_EQ(result.config.periodicity.bin_width_seconds,
                   config.periodicity.bin_width_seconds);
  EXPECT_DOUBLE_EQ(result.config.periodicity.jeffrey_threshold,
                   config.periodicity.jeffrey_threshold);
  EXPECT_EQ(result.config.periodicity.min_intervals,
            config.periodicity.min_intervals);
  EXPECT_DOUBLE_EQ(result.config.cc_threshold, config.cc_threshold);
  EXPECT_DOUBLE_EQ(result.config.sim_threshold, config.sim_threshold);
  EXPECT_EQ(result.config.bp_max_iterations, config.bp_max_iterations);
}

}  // namespace
}  // namespace eid::core
