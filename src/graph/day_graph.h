// The host <-> domain bipartite graph for one observation window (one day,
// §III-C), engineered for enterprise volume. One builder ingests the
// stream: three interners assign final host, domain and user-agent ids on
// first sight, edges aggregate in a (host, domain) key -> slot table, and
// each domain keeps its distinct destination IPs in first-seen order.
// finalize() lays the graph out as CSR (compressed sparse row): flat
// edge_index_ / edge_data_ arrays with per-node offset spans, so day
// analysis streams cache-friendly arrays. Every id, span and edge depends
// only on the event order, never on the thread count. Each edge stores the
// connection timestamps and the HTTP context aggregates the feature layer
// needs (referer presence, user-agent set). The belief propagation
// algorithm consumes this structure through the dom_host / host_rdom views
// named in Algorithm 1 of the paper.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "logs/records.h"
#include "util/interner.h"
#include "util/ipv4.h"
#include "util/time.h"

namespace eid::util {
class Executor;
}

namespace eid::graph {

using HostId = util::InternId;
using DomainId = util::InternId;
using UaId = util::InternId;

inline constexpr util::InternId kNoId = util::kInvalidInternId;

/// Aggregated state of one (host, domain) edge.
struct EdgeData {
  std::vector<util::TimePoint> times;  ///< sorted after finalize()
  std::vector<UaId> user_agents;       ///< distinct UAs, first-seen order
  bool any_referer = false;            ///< any request carried a referer
  bool any_empty_ua = false;           ///< any request carried no UA
};

/// Build by streaming a day of reduced ConnEvents, then call finalize().
class DayGraph {
 public:
  DayGraph() = default;
  /// `executor` (optional) carries the finalize fan-out on a persistent
  /// worker pool; core::Pipeline wires its own pool through here. Results
  /// are identical either way.
  explicit DayGraph(std::shared_ptr<util::Executor> executor)
      : executor_(std::move(executor)) {}

  /// Ingest one event. Events may arrive in any order. Must not be called
  /// after finalize() — the edge table is consumed by the CSR layout, so
  /// this aborts (in every build type) rather than drop events.
  void add_event(const logs::ConnEvent& event);

  /// Ingest a batch: add_event in a loop, counted and traced as one
  /// ingest chunk. `events` only needs to outlive the call; same
  /// abort-after-finalize contract.
  void add_events(std::span<const logs::ConnEvent> events);

  /// Merge another un-finalized graph — built from a later slice of the
  /// same event stream — into this one, without touching the slice's raw
  /// events again. Equivalent, bit for bit after finalize, to replaying
  /// the slice's events here in order: its interners are replayed in id
  /// (= first-appearance) order and its edges in creation order. This is
  /// the rt engine's incremental window merge: sealed per-bucket partials
  /// absorb in O(bucket state), never O(window events).
  void absorb(const DayGraph& src);

  /// Pre-sort every edge's timestamps (partial seal). finalize() and
  /// absorb() then merge/skip instead of re-sorting; add_event after this
  /// clears the property.
  void sort_edge_times();

  /// Events ingested so far (absorbed graphs included).
  std::uint64_t ingested_events() const { return events_; }

  /// Sort edges by (host, domain) key, sort edge timestamps and build the
  /// CSR views; n_threads parallelizes the per-edge work over contiguous
  /// edge ranges. Call after the last add_event (idempotent: repeat calls
  /// are no-ops). The adjacency queries below require a finalized graph.
  void finalize(std::size_t n_threads = 1);

  class SnapshotCache;

  /// Non-consuming finalize: build and return the finalized CSR graph this
  /// graph would become, leaving the ingest state intact so absorbing and
  /// snapshotting can continue (the rt engine snapshots its running window
  /// merge every tick). The returned graph is bit-identical to calling
  /// finalize() on a copy. An optional SnapshotCache makes repeated
  /// snapshots of a growing graph incremental — see its contract.
  DayGraph finalize_snapshot(std::size_t n_threads = 1,
                             SnapshotCache* cache = nullptr) const;

  /// finalize_snapshot writing into a caller-kept graph instead of a fresh
  /// one, recycling `out`'s existing allocations (per-edge time/UA vectors,
  /// offset rows) across repeated snapshots — the rt engine hands each
  /// tick's consumed snapshot back as the next tick's `out`, turning the
  /// per-edge copy step from malloc-bound into memcpy-bound. Any previous
  /// content of `out` is discarded; the result is bit-identical to
  /// finalize_snapshot(). `out` must not alias this graph.
  void finalize_snapshot_into(DayGraph& out, std::size_t n_threads = 1,
                              SnapshotCache* cache = nullptr) const;

  bool finalized() const { return finalized_; }

  /// Counts, names and id lookups are exact at any time, before
  /// finalize() too: ids are final on first sight.
  std::size_t host_count() const { return hosts_.size(); }
  std::size_t domain_count() const { return domains_.size(); }
  std::size_t edge_count() const {
    return finalized_ ? edge_data_.size() : edges_.size();
  }

  const std::string& host_name(HostId id) const { return hosts_.name(id); }
  const std::string& domain_name(DomainId id) const {
    return domains_.name(id);
  }
  const std::string& ua_name(UaId id) const { return uas_.name(id); }

  /// Id lookups; kNoId when the name never appeared this day.
  HostId find_host(std::string_view name) const { return hosts_.find(name); }
  DomainId find_domain(std::string_view name) const {
    return domains_.find(name);
  }

  /// dom_host mapping of Algorithm 1: hosts contacting the domain,
  /// ascending host id.
  std::span<const HostId> domain_hosts(DomainId domain) const;

  /// All domains a host contacted this day, ascending domain id.
  std::span<const DomainId> host_domains(HostId host) const;

  /// Edge data; nullptr when the pair never connected.
  const EdgeData* edge(HostId host, DomainId domain) const;

  /// First connection timestamp of the pair; nullopt when no edge.
  std::optional<util::TimePoint> first_contact(HostId host, DomainId domain) const;

  /// Distinct destination IPs observed for the domain, in order of first
  /// appearance in the event stream.
  std::span<const util::Ipv4> domain_ips(DomainId domain) const;

  /// Visit every (host, domain, edge) triple: fn(HostId, DomainId,
  /// const EdgeData&). Iteration is in ascending (host id, domain id)
  /// order — deterministic and stable across thread counts; call sites
  /// may rely on it. Requires a finalized graph, like every other
  /// adjacency query.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    assert(finalized_);
    for (std::size_t h = 0; h + 1 < host_offsets_.size(); ++h) {
      for (std::uint32_t e = host_offsets_[h]; e < host_offsets_[h + 1]; ++e) {
        fn(static_cast<HostId>(h), edge_index_[e], edge_data_[e]);
      }
    }
  }

 private:
  static std::uint64_t edge_key(HostId host, DomainId domain) {
    return (static_cast<std::uint64_t>(host) << 32) | domain;
  }

  /// One edge staged for CSR layout: its (host, domain) key plus its slot
  /// in the ingest edge table.
  struct StagedEdge {
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };

  /// Shared CSR construction behind finalize()/finalize_snapshot(): reads
  /// the ingest edge table and installs the finalized state into `out`
  /// (which is *this for the consuming finalize — per-edge payloads are
  /// then moved rather than copied). `cache` (snapshot path only) skips
  /// re-staging edges already staged by a previous call.
  void build_csr(DayGraph& out, std::size_t n_threads, bool consume,
                 SnapshotCache* cache) const;

  std::shared_ptr<util::Executor> executor_;  ///< nullptr = inline loops
  std::uint64_t events_ = 0;
  bool times_sorted_ = true;  ///< every edge's times sorted (trivially, when empty)

  // ---- ids and per-domain IPs (final on first sight) ----
  util::Interner hosts_;
  util::Interner domains_;
  util::Interner uas_;
  std::vector<std::vector<util::Ipv4>> ips_of_domain_;  ///< first-seen order

  // ---- ingest edge table (consumed by finalize) ----
  std::unordered_map<std::uint64_t, std::uint32_t> edge_slot_;  ///< key -> slot
  std::vector<std::uint64_t> edge_keys_;  ///< slot -> key (creation order)
  std::vector<EdgeData> edges_;           ///< by slot

  // ---- finalized CSR state ----
  std::vector<std::uint32_t> host_offsets_;   ///< hosts + 1 row offsets
  std::vector<DomainId> edge_index_;          ///< flat, (host, domain) sorted
  std::vector<EdgeData> edge_data_;           ///< parallel to edge_index_
  std::vector<std::uint32_t> domain_offsets_; ///< domains + 1 row offsets
  std::vector<HostId> domain_hosts_;          ///< flat, ascending per domain
  bool finalized_ = false;
};

/// Scratch state that makes repeated finalize_snapshot() calls on one
/// *growing* graph incremental: the key-sorted edge staging — the dominant
/// per-snapshot cost on large windows — is kept across calls, so each
/// snapshot stages and sorts only the edges added since the last one and
/// merges them into the cached order in O(total edges) flat copies.
///
/// Validity contract: reuse only with the same DayGraph object, and only
/// while it strictly grows between snapshots (add_event / add_events /
/// absorb — the rt window merge's extend path). Cached keys stay exact
/// under growth because ids are assigned on first sight and never move.
/// After replacing or rebuilding the graph, reset() (the rt window does
/// this whenever it rebuilds its running merge).
class DayGraph::SnapshotCache {
 public:
  void reset() {
    slots_done_ = 0;
    staged_.clear();
    staged_.shrink_to_fit();
  }

 private:
  friend class DayGraph;
  std::size_t slots_done_ = 0;      ///< edge slots already staged
  std::vector<StagedEdge> staged_;  ///< all staged edges, key-sorted
};

}  // namespace eid::graph
