#include "profile/ua_history.h"

#include <algorithm>
#include <utility>

namespace eid::profile {

void UaHistory::observe(std::string_view ua, std::string_view host) {
  if (ua.empty()) return;
  auto it = uas_.find(ua);
  if (it == uas_.end()) it = uas_.emplace(std::string(ua), Entry{}).first;
  Entry& entry = it->second;
  if (entry.popular) return;
  const util::InternId id = hosts_.intern(host);
  if (std::find(entry.host_ids.begin(), entry.host_ids.end(), id) !=
      entry.host_ids.end()) {
    return;
  }
  entry.host_ids.push_back(id);
  if (entry.host_ids.size() >= rare_threshold_) {
    entry.popular = true;
    entry.host_ids.clear();            // popularity is all we need from now on
    entry.host_ids.shrink_to_fit();
  }
  // The host push (and any popularity flip it caused) is the single
  // mutation site of observe(): a fresh entry always reaches it, and the
  // early returns above mean nothing changed.
  if (journaling_) journal_touch(it->first);
}

std::vector<std::string> UaHistory::drain_journal() {
  journal_seen_.clear();
  return std::exchange(journal_, {});
}

bool UaHistory::entry_view(std::string_view ua, bool& popular,
                           std::span<const util::InternId>& hosts) const {
  const auto it = uas_.find(ua);
  if (it == uas_.end()) return false;
  popular = it->second.popular;
  hosts = std::span<const util::InternId>(it->second.host_ids.data(),
                                          it->second.host_ids.size());
  return true;
}

void UaHistory::journal_touch(const std::string& ua) {
  if (journal_seen_.insert(ua).second) journal_.push_back(ua);
}

bool UaHistory::is_rare(std::string_view ua) const {
  const auto it = uas_.find(ua);
  if (it == uas_.end()) return true;
  return !it->second.popular;
}

std::size_t UaHistory::host_count(std::string_view ua) const {
  const auto it = uas_.find(ua);
  if (it == uas_.end()) return 0;
  return it->second.popular ? rare_threshold_ : it->second.host_ids.size();
}

void UaHistory::restore_entry(std::string_view ua, bool popular,
                              std::span<const std::string_view> hosts) {
  std::vector<util::InternId> ids;
  if (!popular) {
    ids.reserve(hosts.size());
    for (const std::string_view host : hosts) {
      const util::InternId id = hosts_.intern(host);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
  }
  restore_entry_ids(ua, popular, std::move(ids));
}

void UaHistory::restore_entry_ids(std::string_view ua, bool popular,
                                  std::vector<util::InternId> host_ids) {
  Entry entry;
  // Enforce the observe() invariant on restore too: threshold-many
  // distinct hosts means popular, and popular entries carry no host set —
  // a persisted entry listing >= threshold hosts (hand-edited or written
  // by an older tool) normalizes instead of violating the cap.
  entry.popular = popular || host_ids.size() >= rare_threshold_;
  if (!entry.popular) entry.host_ids = std::move(host_ids);
  if (const auto it = uas_.find(ua); it != uas_.end()) {
    it->second = std::move(entry);
  } else {
    uas_.emplace(std::string(ua), std::move(entry));
  }
}

}  // namespace eid::profile
