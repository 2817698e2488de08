// Incremental history of external destinations (§III-A, §IV-A): the system
// bootstraps over a training month, then updates daily. A destination is
// "new" on a day when it is absent from the history, and "unpopular" when
// fewer than a threshold of distinct internal hosts contacted it that day.
// New AND unpopular => "rare destination", the starting point of detection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/day_graph.h"
#include "util/interner.h"
#include "util/time.h"

namespace eid::profile {

/// Set of (folded) domains ever contacted by internal hosts.
class DomainHistory {
 public:
  /// Owned-string set probed allocation-free with views: is_new runs once
  /// per domain per day, so lookups must not construct temporaries.
  using DomainSet = util::TransparentStringSet;

  /// True when the history has never seen the domain. Allocation-free.
  bool is_new(std::string_view domain) const { return !seen_.contains(domain); }

  /// Record a day's distinct domains. Call at end-of-day so the day's own
  /// traffic does not mask its new destinations.
  void update(const std::vector<std::string>& domains) {
    for (const auto& d : domains) insert(d);
    ++days_ingested_;
    generation_ = next_generation();
  }

  void update_one(std::string_view domain) {
    insert(domain);
    generation_ = next_generation();
  }

  std::size_t size() const { return seen_.size(); }
  std::size_t days_ingested() const { return days_ingested_; }

  /// Full domain set (persistence, diagnostics).
  const DomainSet& domains() const { return seen_; }

  /// Identity of the current contents, for caches of is_new answers (the
  /// rt window's per-domain keep flags). Construction and every mutator
  /// draw a fresh value from one process-wide counter, so no value is
  /// handed out twice — not even to another object, which matters because
  /// a history may be replaced wholesale by move-assignment (checkpoint
  /// restore). Equal generations therefore mean equal contents (a copy
  /// shares its source's generation until either is mutated; a moved-from
  /// history is unspecified until restored or reassigned, as usual).
  std::uint64_t generation() const { return generation_; }

  /// Restore from persisted state, replacing current contents.
  void restore(DomainSet domains, std::size_t days) {
    seen_ = std::move(domains);
    days_ingested_ = days;
    generation_ = next_generation();
  }

  // ---- Delta checkpoints (storage/delta.h) ----

  /// Start (or stop) recording first-seen domains. Turning journaling on
  /// clears any previous journal; it never affects is_new()/update().
  void set_journaling(bool on) {
    journaling_ = on;
    journal_.clear();
  }

  /// Domains first seen since journaling started (or the last drain), in
  /// first-seen order. Draining resets the journal.
  std::vector<std::string> drain_journal() {
    return std::exchange(journal_, {});
  }

  /// Apply a delta: insert `domains`, set the absolute day counter a frame
  /// carries. Never journals (deltas are already on disk).
  void absorb(std::span<const std::string> domains, std::size_t days_ingested) {
    for (const auto& d : domains) seen_.insert(d);
    days_ingested_ = days_ingested;
    generation_ = next_generation();
  }

 private:
  static std::uint64_t next_generation();

  void insert(std::string_view domain) {
    if (seen_.contains(domain)) return;  // allocation-free on the hot path
    const auto [it, fresh] = seen_.emplace(domain);
    if (fresh && journaling_) journal_.push_back(*it);
  }

  DomainSet seen_;
  std::size_t days_ingested_ = 0;
  std::uint64_t generation_ = next_generation();
  bool journaling_ = false;
  std::vector<std::string> journal_;  ///< first-seen since last drain
};

/// Result of rare-destination extraction for one day.
struct RareExtraction {
  std::vector<graph::DomainId> rare_domains;  ///< new && unpopular, sorted
  std::size_t new_domains = 0;                ///< new regardless of popularity
  std::size_t total_domains = 0;
};

/// Extract the day's rare destinations from its graph. `popularity_threshold`
/// is the maximum distinct-host count for "unpopular" (the paper uses 10,
/// chosen with enterprise security professionals).
RareExtraction extract_rare_destinations(const graph::DayGraph& graph,
                                         const DomainHistory& history,
                                         std::size_t popularity_threshold = 10);

/// End-of-day history update from a finalized graph.
void update_history(DomainHistory& history, const graph::DayGraph& graph);

}  // namespace eid::profile
