#include "util/interner.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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

// name() references and views taken early must survive every later
// intern, including the table growing many times over.
TEST(InternerTest, NameReferencesSurviveGrowth) {
  Interner interner;
  const InternId short_id = interner.intern("short.com");
  const InternId long_id =
      interner.intern("a-name-well-beyond-the-small-string-buffer.example.org");
  const std::string& short_ref = interner.name(short_id);
  const std::string& long_ref = interner.name(long_id);
  const std::string_view long_view = long_ref;
  for (int i = 0; i < 100000; ++i) {
    interner.intern("grown-" + std::to_string(i) + ".example.net");
  }
  EXPECT_EQ(&interner.name(short_id), &short_ref);
  EXPECT_EQ(short_ref, "short.com");
  EXPECT_EQ(long_ref,
            "a-name-well-beyond-the-small-string-buffer.example.org");
  EXPECT_EQ(long_view,
            "a-name-well-beyond-the-small-string-buffer.example.org");
  EXPECT_EQ(interner.find("grown-99999.example.net"), 100001u);
}

/// Every id's name and its find() round trip match `want`, in order.
void expect_names(const Interner& interner,
                  const std::vector<std::string>& want) {
  ASSERT_EQ(interner.size(), want.size());
  for (InternId id = 0; id < want.size(); ++id) {
    EXPECT_EQ(interner.name(id), want[id]);
    EXPECT_EQ(interner.find(want[id]), id);
  }
}

TEST(InternerTest, CopyAndMoveOfAGrownInterner) {
  std::vector<std::string> names;
  Interner grown;
  for (int i = 0; i < 3000; ++i) {
    names.push_back("host-" + std::to_string(i) +
                    (i % 2 == 0 ? "" : ".a-long-enterprise-suffix.corp"));
    grown.intern(names.back());
  }

  Interner copy(grown);
  expect_names(copy, names);
  Interner assigned;
  assigned.intern("replaced");
  assigned = grown;
  expect_names(assigned, names);
  // Copies own their names: interning into one leaves the others alone.
  EXPECT_NE(&copy.name(0), &grown.name(0));
  EXPECT_NE(&assigned.name(0), &grown.name(0));
  EXPECT_EQ(copy.intern("only-in-copy"), 3000u);
  EXPECT_EQ(grown.find("only-in-copy"), kInvalidInternId);
  EXPECT_EQ(assigned.find("only-in-copy"), kInvalidInternId);

  // A move keeps the names where they are.
  const std::string* const first = &grown.name(1);
  Interner moved(std::move(grown));
  EXPECT_EQ(&moved.name(1), first);
  expect_names(moved, names);
  Interner move_assigned;
  move_assigned.intern("replaced");
  move_assigned = std::move(moved);
  EXPECT_EQ(&move_assigned.name(1), first);
  expect_names(move_assigned, names);
  EXPECT_EQ(move_assigned.intern("next"), 3000u);
}

// Names longer than the small-string buffer live on the heap: assign()
// must copy new ones before releasing any storage, including when the
// views it is given point into the interner's own names.
TEST(InternerTest, AssignLongNamesWithAndWithoutOverlap) {
  const auto long_name = [](int i) {
    return "long-name-" + std::to_string(i) +
           ".well-past-the-small-string-buffer.example.com";
  };
  Interner interner;
  for (int i = 0; i < 6; ++i) interner.intern(long_name(i));

  // Owned views, some names kept, some dropped, some new.
  std::vector<std::string> next = {long_name(4), long_name(10), long_name(1),
                                   long_name(11)};
  interner.assign(std::vector<std::string_view>(next.begin(), next.end()));
  expect_names(interner, next);
  EXPECT_EQ(interner.find(long_name(0)), kInvalidInternId);

  // Views into the interner itself: kept names reordered, and a new name
  // cut from a name this call drops, listed after another new name of the
  // same length — storage this call released must not take that name
  // before the cut is copied.
  const std::string_view dropped = interner.name(2);
  const std::string added[] = {long_name(7), long_name(21)};
  const std::vector<std::string_view> views = {
      interner.name(3), added[0], dropped.substr(5), interner.name(0),
      added[1]};
  const std::vector<std::string> expected(views.begin(), views.end());
  interner.assign(views);
  expect_names(interner, expected);
  EXPECT_EQ(interner.find(long_name(10)), kInvalidInternId);

  // Reused storage reads back whole, and interning continues after it.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::string> fresh;
    for (int i = 0; i < 5; ++i) fresh.push_back(long_name(100 * round + i));
    interner.assign(std::vector<std::string_view>(fresh.begin(), fresh.end()));
    expect_names(interner, fresh);
  }
  EXPECT_EQ(interner.intern(long_name(999)), 5u);
}

}  // namespace
}  // namespace eid::util
