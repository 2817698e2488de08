// Sealed window segments and the one path that turns an ordered run of
// them into a finalized DayGraph — the rt engine's window evidence.
//
// A sealed segment is one slice of the event stream (a window bucket's
// raw events, in arrival order) translated once into stream-wide ids held
// by a shared WindowDictionary. It stores flat arrays only:
//
//   * its host, domain and user-agent ids in local first-appearance order;
//   * its edges grouped by domain, each with a sorted run of connection
//     times, its UA ids in first-seen order and the referer / empty-UA
//     flags;
//   * each of its domains' destination IPs in first-seen order.
//
// assemble() concatenates segments, in order, into a finalized DayGraph
// that is bit-identical to add_event over the segments' events followed
// by finalize():
//
//   * a name's first appearance in the concatenation is its first
//     appearance in the earliest segment holding it, at its local
//     position, so numbering each segment's first-appearance lists on
//     first sight reproduces the sequential ids;
//   * per-edge UA lists and per-domain IP lists deduplicate across
//     segments in first-seen order the same way;
//   * an edge's times concatenate its sorted runs and are sorted only when
//     a run starts before the previous one ended (a sorted multiset is
//     unique, so the bytes match);
//   * the CSR rows come from two counting passes over window ids.
//
// Given a DomainFilter, assemble() lays out only the kept domains — each
// with all of its edges, times, UAs and IPs — and only the hosts with a
// kept edge, so its cost follows the kept evidence, not the window. The
// result is the full graph restricted to the kept domains and their
// hosts: kept domains and those hosts keep their full-graph relative
// order (hosts with no kept edge are absent), and a kept domain's hosts,
// edges and payloads are exactly its full-graph ones. Only UA ids differ:
// they are numbered in the kept-edge walk, and UA names in each edge's
// list keep their order. The rt engine passes "new to the domain history"
// at every tick: the tick's stages read nothing else (see rt/engine.h).
//
// A filtered assembly walks, per segment, only the positions of the
// domains the filter keeps, then the segments' host lists in order until
// every host of a kept edge has been seen (a compare per entry, no
// naming). A segment caches those positions for the filter's generation;
// they are positions in its own lists, so compaction leaves them valid,
// and a new generation recomputes them once. Per assembly the scratch is
// epoch-stamped flat arrays indexed by dictionary id; no name is hashed
// except to renumber the recycled output interners
// (util::Interner::assign) and to answer the filter once per domain id
// and filter generation. seal() ingests each slice through one recycled
// DayGraph.
//
// The dictionary counts, per id, the segments still referencing it
// (seal() takes a reference, release() drops one). Ids are never reused
// by themselves; compact() re-interns only the referenced entries and
// rewrites the live segments, so a long-running window keeps the
// dictionary bounded by what its live segments hold.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/day_graph.h"
#include "logs/records.h"
#include "util/interner.h"
#include "util/ipv4.h"
#include "util/key_table.h"
#include "util/time.h"

namespace eid::graph {

/// One sealed slice of the event stream in WindowDictionary ids. Built by
/// WindowDictionary::seal and readable only by that dictionary.
class SealedSegment {
 public:
  /// Events the segment represents.
  std::uint64_t events() const { return events_; }

 private:
  friend class WindowDictionary;

  std::uint64_t events_ = 0;
  std::vector<HostId> hosts_;      ///< first-appearance order
  std::vector<DomainId> domains_;  ///< first-appearance order
  std::vector<std::uint32_t> ip_offsets_;  ///< domains_ + 1 spans of ips_
  std::vector<util::Ipv4> ips_;            ///< first-seen order per domain
  std::vector<UaId> uas_;                  ///< first-appearance order
  std::vector<std::uint32_t> domain_edges_;  ///< domains_ + 1 spans of edges_
  std::vector<std::uint32_t> edges_;  ///< dictionary edge ids, by domain
  std::vector<std::uint32_t> time_offsets_;  ///< edges_ + 1 spans of times_
  std::vector<util::TimePoint> times_;       ///< one sorted run per edge
  std::vector<std::uint32_t> ua_offsets_;    ///< edges_ + 1 spans of edge_uas_
  std::vector<UaId> edge_uas_;               ///< first-seen order per edge
  std::vector<std::uint8_t> flags_;          ///< per edge: DayGraph flags

  // Filtered-assembly cache: positions in domains_ that the filter of
  // generation kept_generation_ keeps (none computed yet: nullopt).
  mutable std::vector<std::uint32_t> kept_;
  mutable std::optional<std::uint64_t> kept_generation_;
};

/// Keep filter over dictionary domains for WindowDictionary::assemble.
/// `keep(name)` is asked at most once per domain id, and the answer is
/// cached until `generation` changes (per dictionary id, dropped when
/// compaction renumbers the ids; per segment, as kept positions), so equal
/// generations must mean equal answers.
struct DomainFilter {
  std::uint64_t generation = 0;
  std::function<bool(std::string_view)> keep;
};

/// Stream-wide host / domain / UA / edge ids for sealed segments, plus the
/// window assembly. Not thread-safe: owned and driven by one rt window.
class WindowDictionary {
 public:
  /// Ingest `events` (in arrival order) through DayGraph::add_events into
  /// the recycled seal graph and translate the result into a sealed
  /// segment holding a reference to every id it uses.
  SealedSegment seal(std::span<const logs::ConnEvent> events);

  /// Drop the references `segment` holds (it left the window for good).
  void release(const SealedSegment& segment);

  /// Build into `out` the finalized graph of the concatenated `segments`,
  /// in order — bit-identical to ingesting their events sequentially and
  /// finalizing. With a `filter`, only the domains it keeps and the hosts
  /// of their edges are laid out (the restriction described in the file
  /// comment). `out`'s previous content is discarded; its allocations
  /// (rows and flat payload arrays) are recycled, a flat array keeping at
  /// most twice the capacity this window needs.
  void assemble(std::span<const SealedSegment* const> segments, DayGraph& out,
                const DomainFilter* filter = nullptr);

  /// Entries held: hosts + domains + UAs + edges.
  std::size_t size() const {
    return hosts_.size() + domains_.size() + uas_.size() + edge_ids_.size();
  }

  /// Entries referenced by at least one unreleased segment.
  std::size_t live() const { return live_; }

  /// Keep only referenced entries (size() becomes live()) and rewrite
  /// `segments` — every unreleased segment — to the new ids. Cached filter
  /// answers are dropped with the old ids.
  void compact(std::span<SealedSegment* const> segments);

 private:
  // Cached filter answer per domain id.
  static constexpr std::uint8_t kUnresolved = 0;
  static constexpr std::uint8_t kKeep = 1;
  static constexpr std::uint8_t kDrop = 2;

  /// Epoch-stamped per-id scratch value: `value` is meaningful only while
  /// `stamp` equals the current epoch.
  struct Mark {
    std::uint32_t stamp = 0;
    std::uint32_t value = 0;
  };

  static std::uint64_t edge_key(HostId host, DomainId domain) {
    return (static_cast<std::uint64_t>(host) << 32) | domain;
  }

  std::uint32_t next_epoch();
  void retain(std::span<const std::uint32_t> ids,
              std::vector<std::uint32_t>& refs);
  void drop(std::span<const std::uint32_t> ids,
            std::vector<std::uint32_t>& refs);

  // ---- ids and reference counts ----
  util::Interner hosts_;
  util::Interner domains_;
  util::Interner uas_;
  util::KeyTable edge_ids_;  ///< (host, domain) key -> edge id
  std::vector<std::uint32_t> host_refs_;
  std::vector<std::uint32_t> domain_refs_;
  std::vector<std::uint32_t> ua_refs_;
  std::vector<std::uint32_t> edge_refs_;
  std::size_t live_ = 0;

  // ---- seal scratch: the slice's graph, cleared and refilled per seal
  // (released when far larger than the slice) ----
  DayGraph seal_graph_;

  // ---- filter answers, per domain id, for keep_generation_ ----
  std::vector<std::uint8_t> keep_;
  std::uint64_t keep_generation_ = 0;

  // ---- assembly scratch ----
  // Marks cover every dictionary id; then window id -> dictionary id; per
  // window edge its host and domain window ids and payload sizes; per
  // output row its slices of the flat time / UA arrays while they fill.
  std::uint32_t epoch_ = 0;
  std::vector<Mark> host_marks_;
  std::vector<Mark> domain_marks_;
  std::vector<Mark> ua_marks_;
  std::vector<Mark> edge_marks_;
  struct WindowEdge {
    std::uint32_t host = 0;  ///< dictionary id during step 1, then window id
    std::uint32_t domain = 0;
    std::uint32_t times = 0;
    std::uint32_t uas = 0;  ///< upper bound before deduplication
  };
  struct RowFill {
    util::TimePoint last_time = 0;  ///< last time written
    std::uint32_t time_begin = 0;
    std::uint32_t time_end = 0;
    std::uint32_t ua_begin = 0;
    std::uint32_t ua_end = 0;
    std::uint8_t flags = 0;
  };
  std::vector<HostId> window_hosts_;
  std::vector<DomainId> window_domains_;
  std::vector<UaId> window_uas_;
  std::vector<std::uint32_t> window_edges_;
  std::vector<WindowEdge> edge_sizes_;
  std::vector<std::uint32_t> edge_order_;
  std::vector<std::uint32_t> cursor_;
  std::vector<RowFill> rows_;
  std::vector<std::uint32_t> unsorted_;
  std::vector<std::string_view> name_views_;
};

}  // namespace eid::graph
