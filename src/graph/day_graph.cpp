#include "graph/day_graph.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"

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

/// Cell of `key` in a power-of-two table (splitmix64 finalizer).
std::size_t edge_hash(std::uint64_t key, std::size_t table_size) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return static_cast<std::size_t>(key) & (table_size - 1);
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
  ++events_;
  const HostId host = hosts_.intern(event.host);
  const DomainId domain = domains_.intern(event.domain);
  IngestEdge& edge = edges_[edge_slot(edge_key(host, domain))];
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

std::uint32_t DayGraph::edge_slot(std::uint64_t key) {
  if ((edges_.size() + 1) * 2 > edge_table_.size()) {
    edge_table_.assign(std::max<std::size_t>(1024, edge_table_.size() * 2), 0);
    const std::size_t mask = edge_table_.size() - 1;
    for (std::uint32_t slot = 0; slot < edge_keys_.size(); ++slot) {
      std::size_t cell = edge_hash(edge_keys_[slot], edge_table_.size());
      while (edge_table_[cell] != 0) cell = (cell + 1) & mask;
      edge_table_[cell] = slot + 1;
    }
  }
  const std::size_t mask = edge_table_.size() - 1;
  for (std::size_t cell = edge_hash(key, edge_table_.size());;
       cell = (cell + 1) & mask) {
    const std::uint32_t entry = edge_table_[cell];
    if (entry == 0) {
      const auto slot = static_cast<std::uint32_t>(edges_.size());
      edge_table_[cell] = slot + 1;
      edges_.emplace_back();
      edge_keys_.push_back(key);
      return slot;
    }
    if (edge_keys_[entry - 1] == key) return entry - 1;
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

void DayGraph::finalize() {
  if (finalized_) return;  // idempotent: the edge table is already laid out
  // 1. Order the edge slots by (host, domain) key: a counting sort by
  // host lays out the per-host CSR rows, then each row sorts by domain.
  // Each entry packs (domain << 32) | slot; keys are unique, so the order
  // is total.
  const std::size_t n_edges = edges_.size();
  host_offsets_.assign(hosts_.size() + 1, 0);
  for (const std::uint64_t key : edge_keys_) ++host_offsets_[(key >> 32) + 1];
  for (std::size_t h = 1; h < host_offsets_.size(); ++h) {
    host_offsets_[h] += host_offsets_[h - 1];
  }
  std::vector<std::uint64_t> order(n_edges);
  {
    std::vector<std::uint32_t> cursor(host_offsets_.begin(),
                                      host_offsets_.end() - 1);
    for (std::size_t slot = 0; slot < n_edges; ++slot) {
      const std::uint64_t key = edge_keys_[slot];
      order[cursor[key >> 32]++] = (key << 32) | slot;
    }
  }
  for (std::size_t h = 0; h + 1 < host_offsets_.size(); ++h) {
    std::sort(order.begin() + host_offsets_[h],
              order.begin() + host_offsets_[h + 1]);
  }

  // 2. CSR forward layout: flat edge_index_ / edge_data_ in that order,
  // each edge's payload copied into the flat time / UA arrays at its CSR
  // position, its timestamps sorted there.
  const auto slot_at = [&order](std::size_t i) {
    return static_cast<std::uint32_t>(order[i] & 0xffffffffu);
  };
  std::vector<std::size_t> time_begin(n_edges + 1, 0);
  std::vector<std::size_t> ua_begin(n_edges + 1, 0);
  for (std::size_t i = 0; i < n_edges; ++i) {
    const IngestEdge& src = edges_[slot_at(i)];
    time_begin[i + 1] = time_begin[i] + src.times.size();
    ua_begin[i + 1] = ua_begin[i] + src.user_agents.size();
  }
  edge_index_.resize(n_edges);
  edge_data_.resize(n_edges);
  edge_times_.resize(time_begin[n_edges]);
  edge_uas_.resize(ua_begin[n_edges]);
  for (std::size_t i = 0; i < n_edges; ++i) {
    const IngestEdge& src = edges_[slot_at(i)];
    edge_index_[i] = static_cast<DomainId>(order[i] >> 32);
    util::TimePoint* const times = edge_times_.data() + time_begin[i];
    std::copy(src.times.begin(), src.times.end(), times);
    std::sort(times, times + src.times.size());
    UaId* const uas = edge_uas_.data() + ua_begin[i];
    std::copy(src.user_agents.begin(), src.user_agents.end(), uas);
    edge_data_[i] = EdgeData{{times, src.times.size()},
                             {uas, src.user_agents.size()},
                             src.any_referer,
                             src.any_empty_ua};
  }
  layout_domain_rows();
  edge_table_ = {};
  edge_keys_ = {};
  edges_ = {};
  finalized_ = true;
}

void DayGraph::layout_domain_rows() {
  // Counting sort; scanning edges in (host, domain) order emits each
  // domain's hosts ascending.
  domain_offsets_.assign(domains_.size() + 1, 0);
  for (const DomainId domain : edge_index_) ++domain_offsets_[domain + 1];
  for (std::size_t d = 1; d < domain_offsets_.size(); ++d) {
    domain_offsets_[d] += domain_offsets_[d - 1];
  }
  domain_hosts_.resize(edge_index_.size());
  std::vector<std::uint32_t> cursor(domain_offsets_.begin(),
                                    domain_offsets_.end() - 1);
  for (std::size_t h = 0; h + 1 < host_offsets_.size(); ++h) {
    for (std::uint32_t e = host_offsets_[h]; e < host_offsets_[h + 1]; ++e) {
      domain_hosts_[cursor[edge_index_[e]]++] = static_cast<HostId>(h);
    }
  }
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
