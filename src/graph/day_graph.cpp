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

}  // namespace

void DayGraph::add_event(const logs::ConnEvent& event) {
  // Loud, defined failure in every build type: the ingest state was
  // consumed by finalize(), so silently dropping events here would corrupt
  // a detection day.
  if (finalized_) {
    assert(!finalized_ && "DayGraph::add_event after finalize()");
    std::abort();
  }
  ++events_;
  const HostId host = hosts_.intern(event.host);
  const DomainId domain = domains_.intern(event.domain);
  const auto [slot, created] = edge_slots_.insert(edge_key(host, domain));
  if (created) edges_.emplace_back();
  IngestEdge& edge = edges_[slot];
  time_log_.push_back(TimeEntry{event.ts, slot});
  ++edge.times;
  if (event.has_referer) edge.flags |= kReferer;
  if (event.has_http_context) {
    if (event.user_agent.empty()) {
      edge.flags |= kEmptyUa;
    } else if (edge.last_ua == kNoId ||
               uas_.name(edge.last_ua) != event.user_agent) {
      edge.last_ua = uas_.intern(event.user_agent);
      const std::uint64_t pair =
          (static_cast<std::uint64_t>(slot) << 32) | edge.last_ua;
      if (ua_pairs_.insert(pair).second) ++edge.uas;
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

void DayGraph::clear() {
  events_ = 0;
  hosts_.clear();
  domains_.clear();
  uas_.clear();
  // Emptied rows keep their capacity; add_event reads a row only once its
  // domain id is interned again, and domain_ips() of an id past the
  // domains is empty either way.
  for (std::vector<util::Ipv4>& ips : ips_of_domain_) ips.clear();
  edge_slots_.clear();
  edges_.clear();
  time_log_.clear();
  ua_pairs_.clear();
  host_offsets_.clear();
  edge_index_.clear();
  edge_data_.clear();
  edge_times_.clear();
  edge_uas_.clear();
  domain_offsets_.clear();
  domain_hosts_.clear();
  finalized_ = false;
}

void DayGraph::lay_out_payloads(std::span<const std::uint32_t> row_of_slot,
                                std::vector<std::uint32_t>& time_offsets,
                                std::vector<util::TimePoint>& times,
                                std::vector<std::uint32_t>& ua_offsets,
                                std::vector<UaId>& uas) const {
  const std::size_t n_rows = row_of_slot.size();
  time_offsets.assign(n_rows + 1, 0);
  ua_offsets.assign(n_rows + 1, 0);
  for (std::size_t slot = 0; slot < n_rows; ++slot) {
    time_offsets[row_of_slot[slot] + 1] = edges_[slot].times;
    ua_offsets[row_of_slot[slot] + 1] = edges_[slot].uas;
  }
  for (std::size_t row = 1; row <= n_rows; ++row) {
    time_offsets[row] += time_offsets[row - 1];
    ua_offsets[row] += ua_offsets[row - 1];
  }

  // Times: scatter in arrival order, noting each row that receives a time
  // earlier than the one before it; only those rows are sorted.
  times.resize(time_offsets[n_rows]);
  std::vector<std::uint32_t> cursor(time_offsets.begin(),
                                    time_offsets.end() - 1);
  std::vector<std::uint32_t> unsorted;
  for (const TimeEntry& entry : time_log_) {
    const std::uint32_t row = row_of_slot[entry.slot];
    const std::uint32_t at = cursor[row]++;
    if (at > time_offsets[row] && entry.ts < times[at - 1]) {
      unsorted.push_back(row);
    }
    times[at] = entry.ts;
  }
  std::sort(unsorted.begin(), unsorted.end());
  unsorted.erase(std::unique(unsorted.begin(), unsorted.end()),
                 unsorted.end());
  for (const std::uint32_t row : unsorted) {
    std::sort(times.begin() + time_offsets[row],
              times.begin() + time_offsets[row + 1]);
  }

  // UAs: the pair log is in first-seen order, so is every row.
  uas.resize(ua_offsets[n_rows]);
  cursor.assign(ua_offsets.begin(), ua_offsets.end() - 1);
  for (const std::uint64_t pair : ua_pairs_.keys()) {
    uas[cursor[row_of_slot[pair >> 32]]++] =
        static_cast<UaId>(pair & 0xffffffffu);
  }
}

void DayGraph::finalize() {
  if (finalized_) return;  // idempotent: the ingest state is already laid out
  // 1. Order the edge slots by (host, domain) key: a counting sort by
  // host lays out the per-host CSR rows, then each row sorts by domain.
  // Each entry packs (domain << 32) | slot; keys are unique, so the order
  // is total.
  const std::span<const std::uint64_t> keys = edge_slots_.keys();
  const std::size_t n_edges = keys.size();
  host_offsets_.assign(hosts_.size() + 1, 0);
  for (const std::uint64_t key : keys) ++host_offsets_[(key >> 32) + 1];
  for (std::size_t h = 1; h < host_offsets_.size(); ++h) {
    host_offsets_[h] += host_offsets_[h - 1];
  }
  std::vector<std::uint64_t> order(n_edges);
  {
    std::vector<std::uint32_t> cursor(host_offsets_.begin(),
                                      host_offsets_.end() - 1);
    for (std::size_t slot = 0; slot < n_edges; ++slot) {
      const std::uint64_t key = keys[slot];
      order[cursor[key >> 32]++] = (key << 32) | slot;
    }
  }
  for (std::size_t h = 0; h + 1 < host_offsets_.size(); ++h) {
    std::sort(order.begin() + host_offsets_[h],
              order.begin() + host_offsets_[h + 1]);
  }

  // 2. CSR forward layout: flat edge_index_ / edge_data_ in that order,
  // the logs scattered into the flat time / UA arrays by CSR row.
  edge_index_.resize(n_edges);
  std::vector<std::uint32_t> row_of_slot(n_edges);
  for (std::size_t i = 0; i < n_edges; ++i) {
    edge_index_[i] = static_cast<DomainId>(order[i] >> 32);
    row_of_slot[order[i] & 0xffffffffu] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> time_offsets;
  std::vector<std::uint32_t> ua_offsets;
  lay_out_payloads(row_of_slot, time_offsets, edge_times_, ua_offsets,
                   edge_uas_);
  edge_data_.resize(n_edges);
  for (std::size_t slot = 0; slot < n_edges; ++slot) {
    const std::uint32_t row = row_of_slot[slot];
    const std::uint8_t flags = edges_[slot].flags;
    edge_data_[row] = EdgeData{
        {edge_times_.data() + time_offsets[row],
         time_offsets[row + 1] - time_offsets[row]},
        {edge_uas_.data() + ua_offsets[row],
         ua_offsets[row + 1] - ua_offsets[row]},
        (flags & kReferer) != 0,
        (flags & kEmptyUa) != 0};
  }
  layout_domain_rows();
  edge_slots_ = {};
  edges_ = {};
  time_log_ = {};
  ua_pairs_ = {};
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
