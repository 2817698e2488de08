#include "util/interner.h"

#include <gtest/gtest.h>

namespace eid::util {
namespace {

TEST(InternerTest, AssignsDenseIdsInOrder) {
  Interner interner;
  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_EQ(interner.intern("beta"), 1u);
  EXPECT_EQ(interner.intern("gamma"), 2u);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(InternerTest, InterningTwiceReturnsSameId) {
  Interner interner;
  const InternId a = interner.intern("example.com");
  const InternId b = interner.intern("example.com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(InternerTest, NameRoundTrip) {
  Interner interner;
  const InternId id = interner.intern("host-17");
  EXPECT_EQ(interner.name(id), "host-17");
}

TEST(InternerTest, FindDoesNotInsert) {
  Interner interner;
  EXPECT_EQ(interner.find("missing"), kInvalidInternId);
  EXPECT_EQ(interner.size(), 0u);
  interner.intern("present");
  EXPECT_EQ(interner.find("present"), 0u);
}

TEST(InternerTest, CopyRebindsNameTable) {
  // name() serves pointers into the id map's keys; a copy must serve its
  // own storage, not the source's.
  Interner original;
  original.intern("alpha");
  original.intern("beta");
  Interner copy = original;
  original = Interner{};  // drop the source storage
  EXPECT_EQ(copy.name(0), "alpha");
  EXPECT_EQ(copy.name(1), "beta");
  EXPECT_EQ(copy.find("beta"), 1u);
}

TEST(InternerTest, ManyStringsStayConsistent) {
  Interner interner;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(interner.intern("dom" + std::to_string(i)),
              static_cast<InternId>(i));
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(interner.name(static_cast<InternId>(i)), "dom" + std::to_string(i));
    ASSERT_EQ(interner.find("dom" + std::to_string(i)),
              static_cast<InternId>(i));
  }
}

// assign() renumbers kept names, drops absent ones and adds new ones:
// the result must be indistinguishable from interning the list afresh.
TEST(InternerTest, AssignMatchesFreshInterning) {
  Interner interner;
  for (const char* name : {"a", "b", "c", "d"}) interner.intern(name);
  const std::vector<std::string_view> next = {"c", "e", "a", "f"};
  interner.assign(next);
  Interner fresh;
  for (const std::string_view name : next) fresh.intern(name);
  ASSERT_EQ(interner.size(), fresh.size());
  for (InternId id = 0; id < fresh.size(); ++id) {
    EXPECT_EQ(interner.name(id), fresh.name(id));
    EXPECT_EQ(interner.find(fresh.name(id)), id);
  }
  EXPECT_EQ(interner.find("b"), kInvalidInternId);
  EXPECT_EQ(interner.find("d"), kInvalidInternId);
  EXPECT_EQ(interner.intern("g"), 4u);

  interner.assign({});
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.find("c"), kInvalidInternId);
}

}  // namespace
}  // namespace eid::util
