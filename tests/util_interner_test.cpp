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

}  // namespace
}  // namespace eid::util
