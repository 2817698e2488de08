// DHCP/VPN lease resolution (§IV-A): the AC dataset assigns most of the IP
// space dynamically, so proxy source addresses must be converted to stable
// hostnames by joining against the organization's DHCP and VPN logs.
#pragma once

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
  mutable util::TransparentStringMap<PerIp> by_ip_;
  std::size_t count_ = 0;
};

}  // namespace eid::logs
