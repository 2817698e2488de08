#include "graph/day_graph.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/executor.h"

namespace eid::graph {

namespace {

struct IngestMetrics {
  obs::Counter& chunks = obs::metrics().counter("eid_ingest_chunks_total");
  obs::Counter& events = obs::metrics().counter("eid_ingest_events_total");
};

IngestMetrics& ingest_metrics() {
  static IngestMetrics metrics;
  return metrics;
}

}  // namespace

void DayGraph::add_event(const logs::ConnEvent& event) {
  // Loud, defined failure in every build type: the edge table was consumed
  // by finalize(), so silently dropping events here would corrupt a
  // detection day.
  if (finalized_) {
    assert(!finalized_ && "DayGraph::add_event after finalize()");
    std::abort();
  }
  times_sorted_ = false;
  ++events_;
  const HostId host = hosts_.intern(event.host);
  const DomainId domain = domains_.intern(event.domain);
  const std::uint64_t key = edge_key(host, domain);
  const auto [slot, inserted] =
      edge_slot_.try_emplace(key, static_cast<std::uint32_t>(edges_.size()));
  if (inserted) {
    edges_.emplace_back();
    edge_keys_.push_back(key);
  }
  EdgeData& edge = edges_[slot->second];
  edge.times.push_back(event.ts);
  if (event.has_referer) edge.any_referer = true;
  if (event.has_http_context) {
    if (event.user_agent.empty()) {
      edge.any_empty_ua = true;
    } else {
      const UaId ua = uas_.intern(event.user_agent);
      if (std::find(edge.user_agents.begin(), edge.user_agents.end(), ua) ==
          edge.user_agents.end()) {
        edge.user_agents.push_back(ua);
      }
    }
  }
  if (event.dest_ip) {
    if (ips_of_domain_.size() <= domain) ips_of_domain_.resize(domain + 1);
    auto& ips = ips_of_domain_[domain];
    if (std::find(ips.begin(), ips.end(), *event.dest_ip) == ips.end()) {
      ips.push_back(*event.dest_ip);
    }
  }
}

void DayGraph::add_events(std::span<const logs::ConnEvent> events) {
  if (events.empty()) return;
  const obs::TraceSpan span("ingest_chunk", "ingest");
  IngestMetrics& metrics = ingest_metrics();
  metrics.chunks.add(1);
  metrics.events.add(events.size());
  for (const logs::ConnEvent& event : events) add_event(event);
}

void DayGraph::absorb(const DayGraph& src) {
  if (finalized_ || src.finalized_) {
    assert(!finalized_ && !src.finalized_ && "DayGraph::absorb after finalize()");
    std::abort();
  }
  // Interning src's names in id order is interning them in the slice's
  // first-appearance order, so strings new to this graph get exactly the
  // ids a sequential replay would give them.
  const auto replay = [](util::Interner& dst, const util::Interner& from) {
    std::vector<util::InternId> map(from.size());
    for (util::InternId id = 0; id < from.size(); ++id) {
      map[id] = dst.intern(from.name(id));
    }
    return map;
  };
  const std::vector<util::InternId> host_map = replay(hosts_, src.hosts_);
  const std::vector<util::InternId> domain_map = replay(domains_, src.domains_);
  const std::vector<util::InternId> ua_map = replay(uas_, src.uas_);

  // Visit src edges in slot (creation) order so edges new to this graph
  // take slots in concatenated first-appearance order, like add_event
  // would have.
  const bool merge_sorted = times_sorted_ && src.times_sorted_;
  for (std::size_t src_slot = 0; src_slot < src.edge_keys_.size(); ++src_slot) {
    const std::uint64_t src_key = src.edge_keys_[src_slot];
    const std::uint64_t key = edge_key(host_map[src_key >> 32],
                                       domain_map[src_key & 0xffffffffu]);
    const EdgeData& from = src.edges_[src_slot];
    const auto [slot, inserted] =
        edge_slot_.try_emplace(key, static_cast<std::uint32_t>(edges_.size()));
    if (inserted) {
      edges_.emplace_back();
      edge_keys_.push_back(key);
    }
    EdgeData& to = edges_[slot->second];
    const std::size_t old_times = to.times.size();
    to.times.insert(to.times.end(), from.times.begin(), from.times.end());
    if (merge_sorted) {
      std::inplace_merge(to.times.begin(),
                         to.times.begin() + static_cast<std::ptrdiff_t>(old_times),
                         to.times.end());
    }
    if (from.any_referer) to.any_referer = true;
    if (from.any_empty_ua) to.any_empty_ua = true;
    for (const UaId ua : from.user_agents) {
      const UaId mapped = ua_map[ua];
      if (std::find(to.user_agents.begin(), to.user_agents.end(), mapped) ==
          to.user_agents.end()) {
        to.user_agents.push_back(mapped);
      }
    }
  }

  // IP lists: first-seen dedup keeps this (earlier) side's order and
  // appends the slice's new IPs in the slice's order.
  for (std::size_t local = 0; local < src.ips_of_domain_.size(); ++local) {
    const auto& from_ips = src.ips_of_domain_[local];
    if (from_ips.empty()) continue;
    const DomainId domain = domain_map[local];
    if (ips_of_domain_.size() <= domain) ips_of_domain_.resize(domain + 1);
    auto& to_ips = ips_of_domain_[domain];
    for (const util::Ipv4 ip : from_ips) {
      if (std::find(to_ips.begin(), to_ips.end(), ip) == to_ips.end()) {
        to_ips.push_back(ip);
      }
    }
  }
  times_sorted_ = merge_sorted;
  events_ += src.events_;
}

void DayGraph::sort_edge_times() {
  if (finalized_) {
    assert(!finalized_ && "DayGraph::sort_edge_times after finalize()");
    std::abort();
  }
  if (times_sorted_) return;
  for (EdgeData& edge : edges_) std::sort(edge.times.begin(), edge.times.end());
  times_sorted_ = true;
}

void DayGraph::finalize(std::size_t n_threads) {
  if (finalized_) return;  // idempotent: the edge table is already laid out
  build_csr(*this, n_threads, /*consume=*/true, /*cache=*/nullptr);
  edge_slot_ = {};
  edge_keys_ = {};
  edges_ = {};
}

DayGraph DayGraph::finalize_snapshot(std::size_t n_threads,
                                     SnapshotCache* cache) const {
  DayGraph out(executor_);
  finalize_snapshot_into(out, n_threads, cache);
  return out;
}

void DayGraph::finalize_snapshot_into(DayGraph& out, std::size_t n_threads,
                                      SnapshotCache* cache) const {
  if (finalized_ || &out == this) {
    assert(!finalized_ && "DayGraph::finalize_snapshot of a finalized graph");
    assert(&out != this && "finalize_snapshot_into must not alias the source");
    std::abort();
  }
  // Reset the recycled container to a clean un-finalized state; every
  // finalized field is (re)assigned below or by build_csr, element storage
  // reused.
  out.finalized_ = false;
  out.edge_slot_.clear();
  out.edge_keys_.clear();
  out.edges_.clear();
  out.events_ = 0;
  out.executor_ = executor_;
  out.hosts_ = hosts_;
  out.domains_ = domains_;
  out.uas_ = uas_;
  out.ips_of_domain_ = ips_of_domain_;
  build_csr(out, n_threads, /*consume=*/false, cache);
}

void DayGraph::build_csr(DayGraph& out, std::size_t n_threads, bool consume,
                         SnapshotCache* cache) const {
  assert(!consume || &out == this);
  // 1. Stage every edge under its (host, domain) key and order by key.
  // Keys are unique, so the sort is a total order. Edge slots are visited
  // in creation order, which lets a SnapshotCache pick up exactly where
  // the previous snapshot stopped: only slots past its high-water mark are
  // staged and sorted, then merged with the cached (already sorted, still
  // id-exact — see the cache contract) bulk of the window.
  const auto key_less = [](const StagedEdge& a, const StagedEdge& b) {
    return a.key < b.key;
  };
  const auto stage = [&](std::size_t first_slot,
                         std::vector<StagedEdge>& into) {
    for (std::size_t slot = first_slot; slot < edge_keys_.size(); ++slot) {
      into.push_back(
          StagedEdge{edge_keys_[slot], static_cast<std::uint32_t>(slot)});
    }
    std::sort(into.begin(), into.end(), key_less);
  };
  const std::size_t n_edges = edges_.size();
  std::vector<StagedEdge> staged_local;
  const std::vector<StagedEdge>* staged_ptr = &staged_local;
  if (cache != nullptr) {
    std::vector<StagedEdge> fresh;
    stage(cache->slots_done_, fresh);
    cache->slots_done_ = n_edges;
    if (!fresh.empty()) {
      std::vector<StagedEdge> merged;
      merged.reserve(cache->staged_.size() + fresh.size());
      std::merge(cache->staged_.begin(), cache->staged_.end(), fresh.begin(),
                 fresh.end(), std::back_inserter(merged), key_less);
      cache->staged_ = std::move(merged);
    }
    assert(cache->staged_.size() == n_edges &&
           "stale SnapshotCache: graph shrank or was replaced");
    staged_ptr = &cache->staged_;
  } else {
    staged_local.reserve(n_edges);
    stage(0, staged_local);
  }
  const std::vector<StagedEdge>& staged = *staged_ptr;

  // 2. CSR forward layout: per-host offset rows over flat edge_index_ /
  // edge_data_. The per-edge work (timestamp sort) is the finalize hot
  // loop; it parallelizes over contiguous edge ranges with results written
  // into per-edge slots, so any thread count produces the same arrays. The
  // consuming path moves each edge's payload out of the edge table; a
  // snapshot copies, leaving the table reusable. Pre-sorted times (sealed
  // partials keep them sorted through absorbs) skip the sort — a sorted
  // int64 sequence is unique, so the bytes are identical.
  out.host_offsets_.assign(hosts_.size() + 1, 0);
  for (const StagedEdge& st : staged) ++out.host_offsets_[(st.key >> 32) + 1];
  for (std::size_t h = 1; h < out.host_offsets_.size(); ++h) {
    out.host_offsets_[h] += out.host_offsets_[h - 1];
  }
  out.edge_index_.resize(n_edges);
  out.edge_data_.resize(n_edges);
  const bool sorted = times_sorted_;
  util::parallel_ranges(
      executor_.get(), n_edges, n_threads,
      [&, consume, sorted](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const StagedEdge& st = staged[i];
          EdgeData& dst = out.edge_data_[i];
          out.edge_index_[i] = static_cast<DomainId>(st.key & 0xffffffffu);
          if (consume) {
            dst = std::move(const_cast<EdgeData&>(edges_[st.slot]));
          } else {
            dst = edges_[st.slot];
          }
          if (sorted) {
            assert(std::is_sorted(dst.times.begin(), dst.times.end()));
          } else {
            std::sort(dst.times.begin(), dst.times.end());
          }
        }
      });

  // 3. Reverse CSR (dom_host of Algorithm 1) by counting sort; scanning
  // edges in (host, domain) order emits each domain's hosts ascending.
  out.domain_offsets_.assign(domains_.size() + 1, 0);
  for (const DomainId domain : out.edge_index_) ++out.domain_offsets_[domain + 1];
  for (std::size_t d = 1; d < out.domain_offsets_.size(); ++d) {
    out.domain_offsets_[d] += out.domain_offsets_[d - 1];
  }
  out.domain_hosts_.resize(n_edges);
  std::vector<std::uint32_t> cursor(out.domain_offsets_.begin(),
                                    out.domain_offsets_.end() - 1);
  for (std::size_t h = 0; h + 1 < out.host_offsets_.size(); ++h) {
    for (std::uint32_t e = out.host_offsets_[h]; e < out.host_offsets_[h + 1];
         ++e) {
      out.domain_hosts_[cursor[out.edge_index_[e]]++] = static_cast<HostId>(h);
    }
  }
  out.finalized_ = true;
}

// Row guards compare against size() - 1 (offsets hold count + 1 entries):
// an id + 1 form would wrap for kNoId and index out of bounds. The
// asserts make an adjacency query before finalize() fail loudly in debug
// builds rather than read as a plausible empty day.
std::span<const HostId> DayGraph::domain_hosts(DomainId domain) const {
  assert(finalized_);
  if (domain_offsets_.size() <= 1 || domain >= domain_offsets_.size() - 1) {
    return {};
  }
  return {domain_hosts_.data() + domain_offsets_[domain],
          domain_offsets_[domain + 1] - domain_offsets_[domain]};
}

std::span<const DomainId> DayGraph::host_domains(HostId host) const {
  assert(finalized_);
  if (host_offsets_.size() <= 1 || host >= host_offsets_.size() - 1) return {};
  return {edge_index_.data() + host_offsets_[host],
          host_offsets_[host + 1] - host_offsets_[host]};
}

const EdgeData* DayGraph::edge(HostId host, DomainId domain) const {
  assert(finalized_);
  if (host_offsets_.size() <= 1 || host >= host_offsets_.size() - 1) {
    return nullptr;
  }
  const auto row_begin = edge_index_.begin() + host_offsets_[host];
  const auto row_end = edge_index_.begin() + host_offsets_[host + 1];
  const auto it = std::lower_bound(row_begin, row_end, domain);
  if (it == row_end || *it != domain) return nullptr;
  return &edge_data_[static_cast<std::size_t>(it - edge_index_.begin())];
}

std::optional<util::TimePoint> DayGraph::first_contact(HostId host,
                                                       DomainId domain) const {
  const EdgeData* e = edge(host, domain);
  if (e == nullptr || e->times.empty()) return std::nullopt;
  return e->times.front();
}

std::span<const util::Ipv4> DayGraph::domain_ips(DomainId domain) const {
  if (domain >= ips_of_domain_.size()) return {};
  return ips_of_domain_[domain];
}

}  // namespace eid::graph
