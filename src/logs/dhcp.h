// DHCP/VPN lease resolution (§IV-A): the AC dataset assigns most of the IP
// space dynamically, so proxy source addresses must be converted to stable
// hostnames by joining against the organization's DHCP and VPN logs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/interner.h"
#include "util/time.h"

namespace eid::logs {

/// One address lease: `ip` belonged to `hostname` during [start, end).
struct DhcpLease {
  std::string ip;
  util::TimePoint start = 0;
  util::TimePoint end = 0;
  std::string hostname;
};

/// find()'s answer for one (ip, ts) with the span of time it holds for.
struct LeaseAnswer {
  const std::string* hostname = nullptr;  ///< as find(): nullptr = no lease
  /// find(ip, t) gives `hostname` for every t in [start, until).
  util::TimePoint start = 0;
  util::TimePoint until = 0;
};

/// Point-in-time lookup structure over DHCP/VPN leases.
class DhcpTable {
 public:
  /// Add a lease. Leases for the same IP may abut but must not overlap;
  /// overlapping adds keep the later lease (later log lines win, matching
  /// how DHCP servers reissue addresses).
  void add_lease(DhcpLease lease);

  /// Hostname holding `ip` at time `ts`, or nullptr if no lease covers
  /// it. Allocates nothing; the pointer is valid until the next add_lease.
  const std::string* find(std::string_view ip, util::TimePoint ts) const;

  /// find(ip, ts) with the interval around `ts` over which that answer
  /// stays the same, so a caller may reuse it for later probes of `ip`
  /// while version() is unchanged.
  LeaseAnswer find_interval(std::string_view ip, util::TimePoint ts) const;

  /// Changes on every add_lease. Versions are drawn from one process-wide
  /// counter, so two tables with equal versions hold the same leases (a
  /// copy, or both empty), and a cached answer never outlives its table's
  /// contents.
  std::uint64_t version() const { return version_; }

  /// find() as an owned copy.
  std::optional<std::string> resolve(std::string_view ip,
                                     util::TimePoint ts) const;

  std::size_t lease_count() const { return count_; }

  /// Visit every lease (persistence/export). Order is unspecified.
  template <typename Fn>
  void for_each_lease(Fn&& fn) const {
    for (const auto& [ip, slot] : by_ip_) {
      for (const DhcpLease& lease : slot.leases) fn(lease);
    }
  }

 private:
  // Per-IP leases sorted by start time (sorted lazily on first lookup after
  // a mutation burst; log ingestion is append-heavy then read-heavy).
  struct PerIp {
    std::vector<DhcpLease> leases;
    bool sorted = true;
  };
  /// The per-IP leases sorted by start, or nullptr when `ip` has none.
  const std::vector<DhcpLease>* sorted_leases(std::string_view ip) const;

  mutable util::TransparentStringMap<PerIp> by_ip_;
  std::size_t count_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace eid::logs
