#include "logs/folding.h"

#include <gtest/gtest.h>

namespace eid::logs {
namespace {

TEST(FoldingTest, SecondLevelFold) {
  EXPECT_EQ(fold_domain("news.nbc.com"), "nbc.com");  // the paper's example
  EXPECT_EQ(fold_domain("a.b.c.d.example.org"), "example.org");
  EXPECT_EQ(fold_domain("example.org"), "example.org");
}

TEST(FoldingTest, ShortNamesUnchanged) {
  EXPECT_EQ(fold_domain("localhost"), "localhost");
  EXPECT_EQ(fold_domain("com"), "com");
}

TEST(FoldingTest, ThirdLevelFold) {
  EXPECT_EQ(fold_domain("x.y.z.c3", FoldLevel::ThirdLevel), "y.z.c3");
  EXPECT_EQ(fold_domain("y.z.c3", FoldLevel::ThirdLevel), "y.z.c3");
  EXPECT_EQ(fold_domain("z.c3", FoldLevel::ThirdLevel), "z.c3");
}

TEST(FoldingTest, TwoLabelPublicSuffixKeepsExtraLabel) {
  EXPECT_EQ(fold_domain("news.bbc.co.uk"), "bbc.co.uk");
  EXPECT_EQ(fold_domain("bbc.co.uk"), "bbc.co.uk");
  EXPECT_TRUE(has_two_label_public_suffix("news.bbc.co.uk"));
  EXPECT_FALSE(has_two_label_public_suffix("news.nbc.com"));
}

TEST(FoldingTest, TwoLabelPublicSuffixIgnoresCase) {
  // An uppercase co.uk name keeps its organisation label like a lowercase
  // one instead of collapsing to the public suffix.
  EXPECT_EQ(fold_domain("news.BBC.CO.UK"), "bbc.co.uk");
  EXPECT_EQ(fold_domain("News.Bbc.Co.Uk"), "bbc.co.uk");
  EXPECT_EQ(fold_domain("a.b.Example.COM.au", FoldLevel::ThirdLevel),
            "b.example.com.au");
  EXPECT_TRUE(has_two_label_public_suffix("news.BBC.CO.UK"));
  EXPECT_TRUE(has_two_label_public_suffix("Org.UK"));
  EXPECT_FALSE(has_two_label_public_suffix("news.BBC.COM"));
}

TEST(FoldingTest, LowercasesOutput) {
  EXPECT_EQ(fold_domain("WWW.Example.COM"), "example.com");
}

TEST(FoldingTest, TrailingDotIgnored) {
  EXPECT_EQ(fold_domain("www.example.com."), "example.com");
  EXPECT_EQ(fold_domain("www.example.com..."), "example.com");
  EXPECT_EQ(fold_domain("com."), "com");
  EXPECT_EQ(fold_domain(".www.example.com"), "example.com");
}

TEST(FoldingTest, EmptyLabelEdgeCases) {
  // Leading dots of the kept tail are dropped: an empty label at the front
  // of the kept labels leaves no dot behind.
  EXPECT_EQ(fold_domain("x..com"), "com");
  EXPECT_EQ(fold_domain("a..b"), "b");
  EXPECT_EQ(fold_domain("a..b.c"), "b.c");
  EXPECT_EQ(fold_domain("x..y.com", FoldLevel::ThirdLevel), "y.com");
  EXPECT_EQ(fold_domain("w.x..y.com", FoldLevel::ThirdLevel), "y.com");
  // Empty labels inside the kept tail stay.
  EXPECT_EQ(fold_domain("a.b..c", FoldLevel::ThirdLevel), "b..c");
  // Only dots: nothing is left.
  EXPECT_EQ(fold_domain("."), "");
  EXPECT_EQ(fold_domain(".."), "");
  EXPECT_EQ(fold_domain(""), "");
  EXPECT_EQ(fold_domain("...", FoldLevel::ThirdLevel), "");
}

TEST(FoldingTest, FoldIntoReusesTheStringAndMatchesFold) {
  std::string out = "a previous, longer value that leaves spare capacity";
  for (const char* name : {"news.nbc.com", "x..com", "WWW.BBC.CO.UK", ".", "single"}) {
    fold_domain_into(name, FoldLevel::SecondLevel, out);
    EXPECT_EQ(out, fold_domain(name)) << name;
  }
}

class FoldingIdempotence : public ::testing::TestWithParam<const char*> {};

TEST_P(FoldingIdempotence, FoldIsIdempotent) {
  const std::string once = fold_domain(GetParam());
  EXPECT_EQ(fold_domain(once), once);
  const std::string once3 = fold_domain(GetParam(), FoldLevel::ThirdLevel);
  EXPECT_EQ(fold_domain(once3, FoldLevel::ThirdLevel), once3);
}

INSTANTIATE_TEST_SUITE_P(Domains, FoldingIdempotence,
                         ::testing::Values("news.nbc.com", "a.b.c.d.e.f.net",
                                           "bbc.co.uk", "deep.sub.bbc.co.uk",
                                           "single", "x.y", "WWW.MIXED.Case.ORG"));

}  // namespace
}  // namespace eid::logs
