#include "graph/window_dictionary.h"

#include <algorithm>
#include <cassert>

namespace eid::graph {

namespace {

std::uint32_t to_u32(std::size_t n) { return static_cast<std::uint32_t>(n); }

/// Turn per-row counts (row r's count at counts[r + 1]) into offsets.
void prefix_sum(std::vector<std::uint32_t>& counts) {
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
}

template <typename T>
void push_unique(std::vector<T>& list, T value) {
  if (std::find(list.begin(), list.end(), value) == list.end()) {
    list.push_back(value);
  }
}

}  // namespace

std::uint32_t WindowDictionary::next_epoch() {
  if (++epoch_ == 0) {
    // Wrapped: clear every stamp so none can equal a live epoch.
    for (std::vector<Mark>* marks :
         {&host_marks_, &domain_marks_, &ua_marks_, &edge_marks_}) {
      for (Mark& mark : *marks) mark.stamp = 0;
    }
    epoch_ = 1;
  }
  return epoch_;
}

void WindowDictionary::retain(std::span<const std::uint32_t> ids,
                              std::vector<std::uint32_t>& refs) {
  for (const std::uint32_t id : ids) {
    if (id >= refs.size()) refs.resize(id + 1, 0);
    if (refs[id]++ == 0) ++live_;
  }
}

void WindowDictionary::drop(std::span<const std::uint32_t> ids,
                            std::vector<std::uint32_t>& refs) {
  for (const std::uint32_t id : ids) {
    assert(refs[id] > 0);
    if (--refs[id] == 0) --live_;
  }
}

SealedSegment WindowDictionary::seal(std::span<const logs::ConnEvent> events) {
  // The one ingest builder aggregates the slice under local ids, which are
  // its first-appearance order; the segment translates them once. The
  // graph is recycled across seals, unless a far larger slice (every event
  // is one time-log entry) left it more than twice what this one needs.
  DayGraph& local = seal_graph_;
  if (local.time_log_.capacity() > 2 * events.size()) {
    local = DayGraph();
  } else {
    local.clear();
  }
  local.add_events(events);
  SealedSegment seg;
  seg.events_ = events.size();
  const auto translate = [](util::Interner& dictionary,
                            const util::Interner& names,
                            std::vector<std::uint32_t>& ids) {
    ids.reserve(names.size());
    for (util::InternId id = 0; id < names.size(); ++id) {
      ids.push_back(dictionary.intern(names.name(id)));
    }
  };
  translate(hosts_, local.hosts_, seg.hosts_);
  translate(domains_, local.domains_, seg.domains_);
  translate(uas_, local.uas_, seg.uas_);

  // Edges grouped by domain (slot order within a domain), each time run
  // sorted: an assembly that drops a domain skips its edges with one
  // check. The order of a segment's edges is free — an edge occurs once
  // per segment, so its payload still concatenates in segment order.
  const std::span<const std::uint64_t> local_keys = local.edge_slots_.keys();
  const std::size_t n_edges = local_keys.size();
  seg.domain_edges_.assign(seg.domains_.size() + 1, 0);
  for (const std::uint64_t key : local_keys) {
    ++seg.domain_edges_[(key & 0xffffffffu) + 1];
  }
  prefix_sum(seg.domain_edges_);
  std::vector<std::uint32_t> row_of_slot(n_edges);
  {
    std::vector<std::uint32_t> next(seg.domain_edges_.begin(),
                                    seg.domain_edges_.end() - 1);
    for (std::size_t slot = 0; slot < n_edges; ++slot) {
      row_of_slot[slot] = next[local_keys[slot] & 0xffffffffu]++;
    }
  }
  local.lay_out_payloads(row_of_slot, seg.time_offsets_, seg.times_,
                         seg.ua_offsets_, seg.edge_uas_);
  for (UaId& ua : seg.edge_uas_) ua = seg.uas_[ua];
  seg.edges_.resize(n_edges);
  seg.flags_.resize(n_edges);
  for (std::size_t slot = 0; slot < n_edges; ++slot) {
    const std::uint64_t local_key = local_keys[slot];
    const std::uint64_t key = edge_key(seg.hosts_[local_key >> 32],
                                       seg.domains_[local_key & 0xffffffffu]);
    const std::uint32_t row = row_of_slot[slot];
    seg.edges_[row] = edge_ids_.insert(key).first;
    seg.flags_[row] = local.edges_[slot].flags;
  }
  seg.ip_offsets_.assign(1, 0);
  for (std::size_t d = 0; d < seg.domains_.size(); ++d) {
    if (d < local.ips_of_domain_.size()) {
      seg.ips_.insert(seg.ips_.end(), local.ips_of_domain_[d].begin(),
                      local.ips_of_domain_[d].end());
    }
    seg.ip_offsets_.push_back(to_u32(seg.ips_.size()));
  }

  // Assembly scratch covers every dictionary id.
  host_marks_.resize(hosts_.size());
  domain_marks_.resize(domains_.size());
  ua_marks_.resize(uas_.size());
  edge_marks_.resize(edge_ids_.size());
  retain(seg.hosts_, host_refs_);
  retain(seg.domains_, domain_refs_);
  retain(seg.uas_, ua_refs_);
  retain(seg.edges_, edge_refs_);
  return seg;
}

void WindowDictionary::release(const SealedSegment& segment) {
  drop(segment.hosts_, host_refs_);
  drop(segment.domains_, domain_refs_);
  drop(segment.uas_, ua_refs_);
  drop(segment.edges_, edge_refs_);
}

void WindowDictionary::assemble(std::span<const SealedSegment* const> segments,
                                DayGraph& out, const DomainFilter* filter) {
  const std::uint32_t epoch = next_epoch();
  // Window id of a dictionary id, numbered on first sight.
  const auto number = [epoch](std::vector<Mark>& marks, std::uint32_t id,
                              std::vector<std::uint32_t>& order) {
    assert(id < marks.size());
    Mark& mark = marks[id];
    if (mark.stamp != epoch) {
      mark = Mark{epoch, to_u32(order.size())};
      order.push_back(id);
    }
    return mark.value;
  };
  // The filter's answer for a dictionary domain, asked once per id and
  // generation.
  if (filter != nullptr) {
    if (filter->generation != keep_generation_) {
      keep_.clear();
      keep_generation_ = filter->generation;
    }
    keep_.resize(domains_.size(), kUnresolved);
  }
  const auto kept = [this, filter](DomainId id) {
    std::uint8_t& answer = keep_[id];
    if (answer == kUnresolved) {
      answer = filter->keep(domains_.name(id)) ? kKeep : kDrop;
    }
    return answer == kKeep;
  };

  // 1. Window ids in concatenation first-appearance order, and per window
  // edge its dictionary host id, window domain id, time count and an
  // upper bound on its UA count. Per-domain IP lists deduplicate in
  // first-seen order across segments as the domains are numbered. A
  // domain the filter drops is not numbered and its edges are skipped: a
  // filtered walk reads only each segment's cached kept positions.
  // Unfiltered, every host and UA is numbered here in first-appearance
  // order; filtered, only the hosts of kept edges are numbered, by a
  // second walk of the host lists, and the UAs in the kept-edge walk of
  // step 3. Either way each edge's host then becomes its window id.
  window_hosts_.clear();
  window_domains_.clear();
  window_uas_.clear();
  window_edges_.clear();
  edge_sizes_.clear();
  // The positions of a segment's domains that are laid out: all of them,
  // or the filter's cached kept positions.
  const auto for_each_taken = [filter](const SealedSegment& seg, auto&& fn) {
    if (filter == nullptr) {
      for (std::uint32_t j = 0; j < seg.domains_.size(); ++j) fn(j);
    } else {
      for (const std::uint32_t j : seg.kept_) fn(j);
    }
  };
  const auto take_domain = [&](const SealedSegment* seg, std::uint32_t j) {
    const std::size_t known = window_domains_.size();
    const std::uint32_t domain =
        number(domain_marks_, seg->domains_[j], window_domains_);
    if (domain == known) {
      if (out.ips_of_domain_.size() <= domain) {
        out.ips_of_domain_.resize(domain + 1);
      }
      out.ips_of_domain_[domain].clear();
    }
    for (std::uint32_t k = seg->ip_offsets_[j]; k < seg->ip_offsets_[j + 1];
         ++k) {
      push_unique(out.ips_of_domain_[domain], seg->ips_[k]);
    }
    for (std::uint32_t i = seg->domain_edges_[j]; i < seg->domain_edges_[j + 1];
         ++i) {
      const std::uint32_t e = seg->edges_[i];
      const std::uint32_t w = number(edge_marks_, e, window_edges_);
      if (w == edge_sizes_.size()) {
        edge_sizes_.push_back(
            WindowEdge{to_u32(edge_ids_.key(e) >> 32), domain, 0, 0});
      }
      edge_sizes_[w].times += seg->time_offsets_[i + 1] - seg->time_offsets_[i];
      edge_sizes_[w].uas += seg->ua_offsets_[i + 1] - seg->ua_offsets_[i];
    }
  };
  std::uint64_t events = 0;
  for (const SealedSegment* seg : segments) {
    events += seg->events_;
    if (filter == nullptr) {
      for (const HostId host : seg->hosts_) {
        number(host_marks_, host, window_hosts_);
      }
      for (const UaId ua : seg->uas_) number(ua_marks_, ua, window_uas_);
    } else if (seg->kept_generation_ != filter->generation) {
      seg->kept_.clear();
      for (std::uint32_t j = 0; j < seg->domains_.size(); ++j) {
        if (kept(seg->domains_[j])) seg->kept_.push_back(j);
      }
      seg->kept_generation_ = filter->generation;
    }
    for_each_taken(*seg, [&](std::uint32_t j) { take_domain(seg, j); });
  }
  if (filter != nullptr) {
    // Number only the kept edges' hosts, in full-window first-appearance
    // order (so their ids keep the full graph's relative order): mark
    // them, then walk the segments' host lists until each is numbered.
    std::size_t wanted = 0;
    for (const WindowEdge& edge : edge_sizes_) {
      Mark& mark = host_marks_[edge.host];
      if (mark.stamp != epoch) {
        mark = Mark{epoch, kNoId};
        ++wanted;
      }
    }
    for (const SealedSegment* seg : segments) {
      if (window_hosts_.size() == wanted) break;
      for (const HostId host : seg->hosts_) {
        Mark& mark = host_marks_[host];
        if (mark.stamp == epoch && mark.value == kNoId) {
          mark.value = to_u32(window_hosts_.size());
          window_hosts_.push_back(host);
        }
      }
    }
  }
  for (WindowEdge& edge : edge_sizes_) edge.host = host_marks_[edge.host].value;
  const std::size_t n_hosts = window_hosts_.size();
  const std::size_t n_domains = window_domains_.size();
  const std::size_t n_edges = window_edges_.size();
  out.ips_of_domain_.resize(n_domains);

  // 2. CSR rows: order the window edges by domain (counting pass), then
  // place them stably into their host rows — (host, domain) order with no
  // comparison sort. Each edge's output row is remembered in its mark, and
  // each row gets its slices of the flat time / UA arrays.
  out.host_offsets_.assign(n_hosts + 1, 0);
  cursor_.assign(n_domains + 1, 0);
  for (const WindowEdge& edge : edge_sizes_) {
    ++out.host_offsets_[edge.host + 1];
    ++cursor_[edge.domain + 1];
  }
  prefix_sum(out.host_offsets_);
  prefix_sum(cursor_);
  edge_order_.resize(n_edges);
  for (std::uint32_t w = 0; w < n_edges; ++w) {
    edge_order_[cursor_[edge_sizes_[w].domain]++] = w;
  }
  cursor_.assign(out.host_offsets_.begin(), out.host_offsets_.end() - 1);
  out.edge_index_.resize(n_edges);
  rows_.resize(n_edges);
  for (const std::uint32_t w : edge_order_) {
    const WindowEdge& edge = edge_sizes_[w];
    const std::uint32_t row = cursor_[edge.host]++;
    out.edge_index_[row] = edge.domain;
    edge_marks_[window_edges_[w]].value = row;
    rows_[row].time_end = edge.times;  // counts until the prefix pass
    rows_[row].ua_end = edge.uas;
  }
  std::uint32_t n_times = 0;
  std::uint32_t n_uas = 0;
  for (RowFill& fill : rows_) {
    fill.time_begin = n_times;
    n_times += fill.time_end;
    fill.time_end = fill.time_begin;
    fill.ua_begin = n_uas;
    n_uas += fill.ua_end;
    fill.ua_end = fill.ua_begin;
    fill.flags = 0;
  }

  // The flat arrays are recycled across assemblies; one that outgrew
  // twice what this window needs is released rather than kept.
  const auto fit = [](auto& flat, std::size_t need) {
    if (flat.capacity() > 2 * need) flat = {};
    flat.resize(need);
  };
  fit(out.edge_times_, n_times);
  fit(out.edge_uas_, n_uas);

  // 3. Per-edge payloads of the kept domains' edges, in segment order,
  // written straight into their rows' slices.
  unsorted_.clear();
  util::TimePoint* const times = out.edge_times_.data();
  UaId* const uas = out.edge_uas_.data();
  const auto write = [&](const SealedSegment& seg, std::uint32_t i) {
    const std::uint32_t row = edge_marks_[seg.edges_[i]].value;
    RowFill& fill = rows_[row];
    const util::TimePoint* first = seg.times_.data() + seg.time_offsets_[i];
    const util::TimePoint* const last =
        seg.times_.data() + seg.time_offsets_[i + 1];
    if (fill.time_end > fill.time_begin && *first < fill.last_time) {
      unsorted_.push_back(row);
    }
    fill.last_time = last[-1];
    for (; first != last; ++first) times[fill.time_end++] = *first;
    fill.flags |= seg.flags_[i];
    for (std::uint32_t u = seg.ua_offsets_[i]; u < seg.ua_offsets_[i + 1];
         ++u) {
      const UaId ua = number(ua_marks_, seg.edge_uas_[u], window_uas_);
      if (std::find(uas + fill.ua_begin, uas + fill.ua_end, ua) ==
          uas + fill.ua_end) {
        uas[fill.ua_end++] = ua;
      }
    }
  };
  for (const SealedSegment* seg : segments) {
    for_each_taken(*seg, [&](std::uint32_t j) {
      for (std::uint32_t i = seg->domain_edges_[j];
           i < seg->domain_edges_[j + 1]; ++i) {
        write(*seg, i);
      }
    });
  }
  // A run that started before its predecessor ended (a late timestamp
  // sealed into a later segment): sort that edge once.
  std::sort(unsorted_.begin(), unsorted_.end());
  unsorted_.erase(std::unique(unsorted_.begin(), unsorted_.end()),
                  unsorted_.end());
  for (const std::uint32_t row : unsorted_) {
    std::sort(times + rows_[row].time_begin, times + rows_[row].time_end);
  }
  out.edge_data_.resize(n_edges);
  for (std::size_t row = 0; row < n_edges; ++row) {
    const RowFill& fill = rows_[row];
    out.edge_data_[row] = EdgeData{
        {times + fill.time_begin, fill.time_end - fill.time_begin},
        {uas + fill.ua_begin, fill.ua_end - fill.ua_begin},
        (fill.flags & DayGraph::kReferer) != 0,
        (fill.flags & DayGraph::kEmptyUa) != 0};
  }

  // 5. Names in window id order (renumbering the recycled interners in
  // place), then the reverse CSR.
  const auto names = [this](util::Interner& to, const util::Interner& from,
                            const std::vector<std::uint32_t>& order) {
    name_views_.clear();
    for (const std::uint32_t id : order) name_views_.push_back(from.name(id));
    to.assign(name_views_);
  };
  names(out.hosts_, hosts_, window_hosts_);
  names(out.domains_, domains_, window_domains_);
  names(out.uas_, uas_, window_uas_);
  out.edge_slots_ = {};
  out.edges_.clear();
  out.time_log_.clear();
  out.ua_pairs_ = {};
  out.events_ = events;
  out.layout_domain_rows();
  out.finalized_ = true;
}

void WindowDictionary::compact(std::span<SealedSegment* const> segments) {
  // Old id -> new id for every referenced entry, in old id order.
  const auto keep = [](util::Interner& names, std::vector<std::uint32_t>& refs,
                       std::vector<std::uint32_t>& remap) {
    util::Interner kept;
    std::vector<std::uint32_t> kept_refs;
    remap.assign(names.size(), kNoId);
    for (std::uint32_t id = 0; id < names.size(); ++id) {
      if (id >= refs.size() || refs[id] == 0) continue;
      remap[id] = kept.intern(names.name(id));
      kept_refs.push_back(refs[id]);
    }
    names = std::move(kept);
    refs = std::move(kept_refs);
  };
  std::vector<std::uint32_t> host_map;
  std::vector<std::uint32_t> domain_map;
  std::vector<std::uint32_t> ua_map;
  keep(hosts_, host_refs_, host_map);
  keep(domains_, domain_refs_, domain_map);
  keep(uas_, ua_refs_, ua_map);

  // A referenced edge's host and domain are referenced by the same
  // segment, so both remap.
  std::vector<std::uint32_t> edge_map(edge_ids_.size(), kNoId);
  util::KeyTable edge_ids;
  std::vector<std::uint32_t> edge_refs;
  for (std::uint32_t id = 0; id < edge_ids_.size(); ++id) {
    if (id >= edge_refs_.size() || edge_refs_[id] == 0) continue;
    const std::uint64_t old_key = edge_ids_.key(id);
    const std::uint64_t key = edge_key(host_map[old_key >> 32],
                                       domain_map[old_key & 0xffffffffu]);
    edge_map[id] = edge_ids.insert(key).first;
    edge_refs.push_back(edge_refs_[id]);
  }
  edge_ids_ = std::move(edge_ids);
  edge_refs_ = std::move(edge_refs);

  const auto rewrite = [](std::vector<std::uint32_t>& ids,
                          const std::vector<std::uint32_t>& map) {
    for (std::uint32_t& id : ids) id = map[id];
  };
  for (SealedSegment* seg : segments) {
    rewrite(seg->hosts_, host_map);
    rewrite(seg->domains_, domain_map);
    rewrite(seg->uas_, ua_map);
    rewrite(seg->edge_uas_, ua_map);
    rewrite(seg->edges_, edge_map);
  }
  keep_.clear();
  host_marks_.assign(hosts_.size(), Mark{});
  domain_marks_.assign(domains_.size(), Mark{});
  ua_marks_.assign(uas_.size(), Mark{});
  edge_marks_.assign(edge_ids_.size(), Mark{});
  epoch_ = 0;
  assert(size() == live_);
}

}  // namespace eid::graph
