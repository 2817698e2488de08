// The host <-> domain bipartite graph for one observation window (one day,
// §III-C), engineered for enterprise volume. One builder ingests the
// stream: three interners assign final host, domain and user-agent ids on
// first sight, edges aggregate in a (host, domain) key -> slot table, and
// each domain keeps its distinct destination IPs in first-seen order.
// Ingest allocates nothing per edge: an edge is a fixed-size record
// (flags and its last UA), every event appends one (slot, time) entry to
// a flat log, and each distinct (slot, UA) pair enters a second log once.
// An event whose UA equals its edge's last UA does not hash the UA.
// finalize() lays the graph out as CSR (compressed sparse row): flat
// edge_index_ / edge_data_ arrays with per-node offset spans, and both
// logs scattered in one counting pass into two flat arrays in the same
// order (each edge's times sorted, its UAs in first-seen order), so day
// analysis streams cache-friendly arrays. Every id, span and edge depends
// only on the event order. Each edge stores the
// connection timestamps and the HTTP context aggregates the feature layer
// needs (referer presence, user-agent set). The belief propagation
// algorithm consumes this structure through the dom_host / host_rdom views
// named in Algorithm 1 of the paper.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "logs/records.h"
#include "util/interner.h"
#include "util/key_table.h"
#include "util/ipv4.h"
#include "util/time.h"

namespace eid::graph {

using HostId = util::InternId;
using DomainId = util::InternId;
using UaId = util::InternId;

inline constexpr util::InternId kNoId = util::kInvalidInternId;

/// Aggregated state of one (host, domain) edge of a finalized graph. The
/// spans view the graph's flat per-edge arrays: valid while the graph
/// lives (moving the graph keeps them valid).
struct EdgeData {
  std::span<const util::TimePoint> times;  ///< sorted
  std::span<const UaId> user_agents;       ///< distinct UAs, first-seen order
  bool any_referer = false;                ///< any request carried a referer
  bool any_empty_ua = false;               ///< any request carried no UA
};

/// Build by streaming a day of reduced ConnEvents, then call finalize().
class DayGraph {
 public:
  DayGraph() = default;

  // Move-only: EdgeData spans point into this graph's own arrays.
  DayGraph(DayGraph&&) = default;
  DayGraph& operator=(DayGraph&&) = default;
  DayGraph(const DayGraph&) = delete;
  DayGraph& operator=(const DayGraph&) = delete;

  /// Ingest one event. Events may arrive in any order. Must not be called
  /// after finalize() — the ingest state is consumed by the CSR layout, so
  /// this aborts (in every build type) rather than drop events.
  void add_event(const logs::ConnEvent& event);

  /// Ingest a batch: add_event in a loop, counted and traced as one
  /// ingest chunk. `events` only needs to outlive the call; same
  /// abort-after-finalize contract.
  void add_events(std::span<const logs::ConnEvent> events);

  /// Events ingested so far.
  std::uint64_t ingested_events() const { return events_; }

  /// Order edges by (host, domain) key, lay the time and UA logs out into
  /// the CSR rows (each edge's times sorted) and build the CSR views.
  /// Call after the last add_event (idempotent: repeat calls are no-ops).
  /// The adjacency queries below require a finalized graph.
  void finalize();

  bool finalized() const { return finalized_; }

  /// Back to the empty, unfinalized state, keeping every allocation for
  /// the next ingest (the rt window seals each bucket through one
  /// recycled graph).
  void clear();

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
  /// order — deterministic; call sites may rely on it. Requires a finalized graph, like every other
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

  // The rt window assembles finalized graphs straight from sealed
  // segments (graph/window_dictionary.h), writing the CSR state directly.
  friend class WindowDictionary;

  /// Reverse CSR (dom_host of Algorithm 1) from the forward rows.
  void layout_domain_rows();

  std::uint64_t events_ = 0;

  // ---- ids and per-domain IPs (final on first sight) ----
  util::Interner hosts_;
  util::Interner domains_;
  util::Interner uas_;
  std::vector<std::vector<util::Ipv4>> ips_of_domain_;  ///< first-seen order

  // ---- ingest state (consumed by finalize) ----
  static constexpr std::uint8_t kReferer = 1;
  static constexpr std::uint8_t kEmptyUa = 2;
  /// One edge under ingest; its times and UAs live in the logs below.
  struct IngestEdge {
    std::uint32_t times = 0;  ///< its entries in time_log_
    std::uint32_t uas = 0;    ///< its pairs in ua_pairs_
    UaId last_ua = kNoId;     ///< UA of its latest event that carried one
    std::uint8_t flags = 0;   ///< kReferer | kEmptyUa
  };
  struct TimeEntry {
    util::TimePoint ts = 0;
    std::uint32_t slot = 0;
  };
  /// Lay the logs out by row, `row_of_slot` giving each edge slot's
  /// output row: rows + 1 offsets into each flat array, every row's times
  /// sorted and its UAs in first-seen order. One counting scatter per
  /// log; only a row whose times arrived out of order is sorted. Offsets
  /// are 32-bit, as in a SealedSegment: a graph holds < 2^32 events.
  void lay_out_payloads(std::span<const std::uint32_t> row_of_slot,
                        std::vector<std::uint32_t>& time_offsets,
                        std::vector<util::TimePoint>& times,
                        std::vector<std::uint32_t>& ua_offsets,
                        std::vector<UaId>& uas) const;
  util::KeyTable edge_slots_;         ///< (host, domain) key -> slot
  std::vector<IngestEdge> edges_;     ///< by slot
  std::vector<TimeEntry> time_log_;   ///< one entry per event, arrival order
  util::KeyTable ua_pairs_;           ///< distinct (slot, UA), first seen

  // ---- finalized CSR state ----
  std::vector<std::uint32_t> host_offsets_;   ///< hosts + 1 row offsets
  std::vector<DomainId> edge_index_;          ///< flat, (host, domain) sorted
  std::vector<EdgeData> edge_data_;           ///< parallel to edge_index_
  std::vector<util::TimePoint> edge_times_;   ///< every edge's times, CSR order
  std::vector<UaId> edge_uas_;                ///< every edge's UAs, CSR order
  std::vector<std::uint32_t> domain_offsets_; ///< domains + 1 row offsets
  std::vector<HostId> domain_hosts_;          ///< flat, ascending per domain
  bool finalized_ = false;
};

}  // namespace eid::graph
