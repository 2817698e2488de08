#include "util/strings.h"

#include <gtest/gtest.h>

#include <array>

namespace eid::util {
namespace {

TEST(StringsTest, SplitExactFillsEveryField) {
  std::array<std::string_view, 3> three;
  ASSERT_TRUE(split_exact("a,b,c", ',', three));
  EXPECT_EQ(three[0], "a");
  EXPECT_EQ(three[1], "b");
  EXPECT_EQ(three[2], "c");
}

TEST(StringsTest, SplitExactPreservesEmptyFields) {
  std::array<std::string_view, 4> four;
  ASSERT_TRUE(split_exact("a,,c,", ',', four));
  EXPECT_EQ(four[0], "a");
  EXPECT_EQ(four[1], "");
  EXPECT_EQ(four[2], "c");
  EXPECT_EQ(four[3], "");
  std::array<std::string_view, 1> one;
  ASSERT_TRUE(split_exact("", ',', one));  // one empty field
  EXPECT_EQ(one[0], "");
}

TEST(StringsTest, SplitExactRejectsAnyOtherFieldCount) {
  std::array<std::string_view, 3> three;
  for (const char* text : {"", "abc", "a,b", "a,b,c,", ",,,", "a,b,c,d"}) {
    EXPECT_FALSE(split_exact(text, ',', three)) << text;
  }
  EXPECT_TRUE(split_exact(",,", ',', three));
  EXPECT_FALSE(split_exact("a", ',', std::span<std::string_view>()));
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("WwW.ExAmPle.COM"), "www.example.com");
  EXPECT_EQ(to_lower("already lower 123"), "already lower 123");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("www.example.com", "www."));
  EXPECT_FALSE(starts_with("example.com", "www."));
  EXPECT_TRUE(ends_with("evil.example.com", ".example.com"));
  EXPECT_FALSE(ends_with("com", ".example.com"));
}

}  // namespace
}  // namespace eid::util
