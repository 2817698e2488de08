#include "logs/dhcp.h"

#include <algorithm>
#include <atomic>
#include <limits>

namespace eid::logs {
namespace {

std::atomic<std::uint64_t> next_version{1};

}  // namespace

void DhcpTable::add_lease(DhcpLease lease) {
  auto& slot = by_ip_[lease.ip];
  if (!slot.leases.empty() && lease.start < slot.leases.back().start) {
    slot.sorted = false;
  }
  slot.leases.push_back(std::move(lease));
  ++count_;
  version_ = next_version.fetch_add(1, std::memory_order_relaxed);
}

const std::vector<DhcpLease>* DhcpTable::sorted_leases(
    std::string_view ip) const {
  auto it = by_ip_.find(ip);
  if (it == by_ip_.end()) return nullptr;
  auto& slot = it->second;
  if (!slot.sorted) {
    std::stable_sort(slot.leases.begin(), slot.leases.end(),
                     [](const DhcpLease& a, const DhcpLease& b) {
                       return a.start < b.start;
                     });
    slot.sorted = true;
  }
  return &slot.leases;
}

const std::string* DhcpTable::find(std::string_view ip,
                                   util::TimePoint ts) const {
  return find_interval(ip, ts).hostname;
}

LeaseAnswer DhcpTable::find_interval(std::string_view ip,
                                     util::TimePoint ts) const {
  using Limits = std::numeric_limits<util::TimePoint>;
  LeaseAnswer answer{nullptr, Limits::min(), Limits::max()};
  const std::vector<DhcpLease>* leases = sorted_leases(ip);
  if (leases == nullptr) return answer;
  // The last lease with start <= ts decides (later entries win on
  // overlap): ts is inside it or in the gap after it.
  const auto next = std::upper_bound(
      leases->begin(), leases->end(), ts,
      [](util::TimePoint t, const DhcpLease& lease) { return t < lease.start; });
  if (next != leases->end()) answer.until = next->start;
  if (next == leases->begin()) return answer;  // before the first lease
  const DhcpLease& lease = *std::prev(next);
  if (ts < lease.end) {
    answer.hostname = &lease.hostname;
    answer.start = lease.start;
    answer.until = std::min(answer.until, lease.end);
  } else {
    answer.start = std::max(lease.start, lease.end);
  }
  return answer;
}

std::optional<std::string> DhcpTable::resolve(std::string_view ip,
                                              util::TimePoint ts) const {
  if (const std::string* hostname = find(ip, ts)) return *hostname;
  return std::nullopt;
}

}  // namespace eid::logs
