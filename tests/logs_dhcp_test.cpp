#include "logs/dhcp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace eid::logs {
namespace {

TEST(DhcpTest, ResolvesWithinLease) {
  DhcpTable table;
  table.add_lease({"10.0.0.5", 1000, 2000, "ws-1.corp"});
  EXPECT_EQ(table.resolve("10.0.0.5", 1000).value_or(""), "ws-1.corp");
  EXPECT_EQ(table.resolve("10.0.0.5", 1999).value_or(""), "ws-1.corp");
}

TEST(DhcpTest, OutsideLeaseFails) {
  DhcpTable table;
  table.add_lease({"10.0.0.5", 1000, 2000, "ws-1.corp"});
  EXPECT_FALSE(table.resolve("10.0.0.5", 999).has_value());
  EXPECT_FALSE(table.resolve("10.0.0.5", 2000).has_value());  // end-exclusive
  EXPECT_FALSE(table.resolve("10.0.0.9", 1500).has_value());
}

TEST(DhcpTest, SameIpReassignedOverTime) {
  DhcpTable table;
  table.add_lease({"10.0.0.5", 0, 100, "ws-a.corp"});
  table.add_lease({"10.0.0.5", 100, 200, "ws-b.corp"});
  table.add_lease({"10.0.0.5", 250, 400, "ws-c.corp"});
  EXPECT_EQ(table.resolve("10.0.0.5", 50).value_or(""), "ws-a.corp");
  EXPECT_EQ(table.resolve("10.0.0.5", 150).value_or(""), "ws-b.corp");
  EXPECT_FALSE(table.resolve("10.0.0.5", 220).has_value());  // gap
  EXPECT_EQ(table.resolve("10.0.0.5", 300).value_or(""), "ws-c.corp");
}

TEST(DhcpTest, OutOfOrderInsertionStillResolves) {
  DhcpTable table;
  table.add_lease({"10.0.0.5", 300, 400, "ws-late.corp"});
  table.add_lease({"10.0.0.5", 0, 100, "ws-early.corp"});
  table.add_lease({"10.0.0.5", 100, 300, "ws-mid.corp"});
  EXPECT_EQ(table.resolve("10.0.0.5", 10).value_or(""), "ws-early.corp");
  EXPECT_EQ(table.resolve("10.0.0.5", 200).value_or(""), "ws-mid.corp");
  EXPECT_EQ(table.resolve("10.0.0.5", 350).value_or(""), "ws-late.corp");
}

TEST(DhcpTest, OverlappingLeasesLaterWins) {
  DhcpTable table;
  table.add_lease({"10.0.0.5", 0, 1000, "ws-old.corp"});
  table.add_lease({"10.0.0.5", 500, 1500, "ws-new.corp"});
  EXPECT_EQ(table.resolve("10.0.0.5", 700).value_or(""), "ws-new.corp");
  EXPECT_EQ(table.resolve("10.0.0.5", 100).value_or(""), "ws-old.corp");
}

TEST(DhcpTest, LeaseCount) {
  DhcpTable table;
  EXPECT_EQ(table.lease_count(), 0u);
  table.add_lease({"10.0.0.1", 0, 10, "a"});
  table.add_lease({"10.0.0.2", 0, 10, "b"});
  EXPECT_EQ(table.lease_count(), 2u);
}

/// find()'s documented answer, by brute force over the leases in the
/// order they were added: of `ip`'s leases, the one with the latest start
/// <= ts (the later-added one on a tie) decides, and covers ts iff ts < its
/// end. Returns the deciding lease's position in `added`, or -1.
int reference_find(const std::vector<DhcpLease>& added, std::string_view ip,
                   util::TimePoint ts) {
  int decider = -1;
  for (std::size_t i = 0; i < added.size(); ++i) {
    const DhcpLease& lease = added[i];
    if (lease.ip != ip || lease.start > ts) continue;
    if (decider < 0 || lease.start >= added[decider].start) {
      decider = static_cast<int>(i);
    }
  }
  return decider >= 0 && ts < added[decider].end ? decider : -1;
}

/// Every probe of find_interval in [kLo, kHi) agrees with find and with the
/// reference, contains its ts, and holds its answer over the whole
/// interval (checked inside the probed range). Hostnames in `added` must
/// be distinct.
void expect_intervals_hold(const DhcpTable& table,
                           const std::vector<DhcpLease>& added,
                           std::string_view ip) {
  constexpr util::TimePoint kLo = -40;
  constexpr util::TimePoint kHi = 640;
  std::vector<int> expected;
  for (util::TimePoint t = kLo; t < kHi; ++t) {
    expected.push_back(reference_find(added, ip, t));
  }
  const auto position = [&](const std::string* hostname) {
    if (hostname == nullptr) return -1;
    for (std::size_t i = 0; i < added.size(); ++i) {
      if (added[i].hostname == *hostname) return static_cast<int>(i);
    }
    return -2;  // a name no lease carries
  };
  for (util::TimePoint ts = kLo; ts < kHi; ++ts) {
    const LeaseAnswer answer = table.find_interval(ip, ts);
    const int got = position(answer.hostname);
    ASSERT_EQ(got, expected[ts - kLo]) << ip << " @" << ts;
    ASSERT_EQ(position(table.find(ip, ts)), got) << ip << " @" << ts;
    ASSERT_LE(answer.start, ts) << ip << " @" << ts;
    ASSERT_LT(ts, answer.until) << ip << " @" << ts;
    for (util::TimePoint t = std::max(answer.start, kLo);
         t < std::min(answer.until, kHi); ++t) {
      ASSERT_EQ(expected[t - kLo], got)
          << ip << " probed @" << ts << ", held @" << t;
    }
  }
}

TEST(DhcpTest, FindIntervalHoldsItsAnswer) {
  DhcpTable table;
  std::vector<DhcpLease> added;
  const auto add = [&](DhcpLease lease) {
    const std::uint64_t before = table.version();
    added.push_back(lease);
    table.add_lease(std::move(lease));
    EXPECT_NE(table.version(), before);
  };
  // Abutting leases, a gap, and the unknown-address answer.
  add({"10.0.0.1", 0, 100, "ws-a"});
  add({"10.0.0.1", 100, 180, "ws-b"});
  add({"10.0.0.1", 250, 400, "ws-c"});
  expect_intervals_hold(table, added, "10.0.0.1");
  expect_intervals_hold(table, added, "10.0.0.99");
  // Overlaps (the later lease wins), an equal start, an empty lease, and
  // a lease added out of order between probes.
  add({"10.0.0.1", 150, 300, "ws-d"});
  add({"10.0.0.1", 250, 260, "ws-e"});
  add({"10.0.0.1", 40, 40, "ws-empty"});
  expect_intervals_hold(table, added, "10.0.0.1");
  add({"10.0.0.1", -10, 500, "ws-f"});
  expect_intervals_hold(table, added, "10.0.0.1");

  // Random tables over a few addresses.
  util::Rng rng(0xd1c9);
  for (int round = 0; round < 20; ++round) {
    DhcpTable random;
    std::vector<DhcpLease> leases;
    for (int i = 0; i < 12; ++i) {
      const util::TimePoint start = rng.uniform_int(-30, 500);
      leases.push_back({"10.1.0." + std::to_string(rng.index(3)), start,
                        start + rng.uniform_int(-5, 120),
                        "ws-" + std::to_string(i)});
      random.add_lease(leases.back());
    }
    for (int ip = 0; ip < 3; ++ip) {
      expect_intervals_hold(random, leases, "10.1.0." + std::to_string(ip));
    }
  }
}

TEST(DhcpTest, VersionsIdentifyContents) {
  DhcpTable a;
  DhcpTable b;
  EXPECT_EQ(a.version(), b.version());  // both empty
  a.add_lease({"10.0.0.1", 0, 10, "x"});
  b.add_lease({"10.0.0.1", 0, 10, "x"});
  EXPECT_NE(a.version(), b.version());  // drawn from one counter
  const DhcpTable copy = a;
  EXPECT_EQ(copy.version(), a.version());
}

}  // namespace
}  // namespace eid::logs
