#include "logs/reduction.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace eid::logs {
namespace {

bool matches_internal_suffix(std::string_view domain,
                             const std::vector<std::string>& suffixes) {
  for (const std::string& suffix : suffixes) {
    if (domain == suffix) return true;
    // domain ends with "." + suffix
    if (domain.size() > suffix.size() && domain.ends_with(suffix) &&
        domain[domain.size() - suffix.size() - 1] == '.') {
      return true;
    }
  }
  return false;
}

/// ts - offset, clamped to the TimePoint range: a parsed timestamp may be
/// any 64-bit value, and overflowing it would be undefined.
util::TimePoint subtract_saturating(util::TimePoint ts, int offset) {
  using Limits = std::numeric_limits<util::TimePoint>;
  if (offset > 0 && ts < Limits::min() + offset) return Limits::min();
  if (offset < 0 && ts > Limits::max() + offset) return Limits::max();
  return ts - offset;
}

DnsFields fields_of(const DnsRecord& rec) {
  return DnsFields{rec.ts, rec.src, rec.domain, rec.type, rec.response_ip};
}

ProxyFields fields_of(const ProxyRecord& rec) {
  return ProxyFields{rec.ts,       rec.collector, rec.src_ip,
                     rec.hostname, rec.domain,    rec.dest_ip,
                     rec.url_path, rec.method,    rec.status,
                     rec.user_agent, rec.referer};
}

}  // namespace

DnsOutcome DnsReducer::reduce(const DnsFields& rec, ConnEvent& out) const {
  if (rec.type != DnsType::A) return DnsOutcome::NotA;
  fold_domain_into(rec.domain, config_->fold_level, out.domain);
  if (matches_internal_suffix(out.domain, config_->internal_suffixes)) {
    return DnsOutcome::InternalQuery;
  }
  if (config_->internal_servers.contains(rec.src)) {
    return DnsOutcome::InternalServer;
  }
  out.ts = rec.ts;
  out.host.assign(rec.src);
  out.dest_ip = rec.response_ip;
  out.user_agent.clear();
  out.has_referer = false;
  out.has_http_context = false;
  return DnsOutcome::Kept;
}

ProxyOutcome ProxyReducer::reduce(const ProxyFields& rec, ConnEvent& out) const {
  // The paper drops destinations that are raw IP addresses.
  if (rec.domain.empty() || util::parse_ipv4(rec.domain).has_value()) {
    return ProxyOutcome::IpLiteral;
  }
  util::TimePoint ts = rec.ts;
  // A collector listed twice takes its first offset.
  for (const auto& [collector, offset] : config_->collector_utc_offsets) {
    if (collector == rec.collector) {
      ts = subtract_saturating(ts, offset);
      break;
    }
  }
  ProxyOutcome outcome = ProxyOutcome::KeptResolved;
  if (!rec.hostname.empty()) {
    out.host.assign(rec.hostname);
  } else if (const std::string* leased = leases_->find(rec.src_ip, ts)) {
    out.host.assign(*leased);
  } else {
    if (!config_->keep_unresolved_sources) return ProxyOutcome::Unresolved;
    out.host.assign(rec.src_ip);
    outcome = ProxyOutcome::KeptUnresolved;
  }
  out.ts = ts;
  fold_domain_into(rec.domain, config_->fold_level, out.domain);
  out.dest_ip = rec.dest_ip;
  out.user_agent.assign(rec.user_agent);
  out.has_referer = !rec.referer.empty();
  out.has_http_context = true;
  return outcome;
}

void sort_by_time(std::span<ConnEvent> events, std::vector<TimeKey>& keys) {
  if (std::is_sorted(events.begin(), events.end(),
                     [](const ConnEvent& a, const ConnEvent& b) {
                       return a.ts < b.ts;
                     })) {
    return;
  }
  keys.resize(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) keys[i] = {events[i].ts, i};
  std::sort(keys.begin(), keys.end());  // the index breaks ties: stable
  // Position i takes the event at keys[i].second. Follow each cycle of
  // that permutation once, marking a placed position by pointing its key
  // at itself.
  for (std::size_t start = 0; start < keys.size(); ++start) {
    if (keys[start].second == start) continue;
    ConnEvent held = std::move(events[start]);
    std::size_t at = start;
    while (keys[at].second != start) {
      const std::size_t from = keys[at].second;
      events[at] = std::move(events[from]);
      keys[at].second = at;
      at = from;
    }
    events[at] = std::move(held);
    keys[at].second = at;
  }
}

std::vector<ConnEvent> reduce_dns(std::span<const DnsRecord> records,
                                  const DnsReductionConfig& config,
                                  DnsReductionStats* stats) {
  DnsReductionStats local;
  DnsReductionStats& s = stats ? *stats : local;
  s = DnsReductionStats{};
  s.total_records = records.size();

  std::unordered_set<std::string> domains_all;
  std::unordered_set<std::string> domains_internal;
  std::unordered_set<std::string> domains_final;
  std::unordered_set<std::string> hosts_final;

  const DnsReducer reducer(config);
  std::vector<ConnEvent> out(records.size());
  std::size_t kept = 0;
  for (const DnsRecord& rec : records) {
    ConnEvent& slot = out[kept];
    const DnsOutcome outcome = reducer.reduce(fields_of(rec), slot);
    if (outcome == DnsOutcome::NotA) continue;
    ++s.a_records;
    if (stats) domains_all.insert(slot.domain);
    if (outcome == DnsOutcome::InternalQuery) continue;
    ++s.after_internal_query_filter;
    if (stats) domains_internal.insert(slot.domain);
    if (outcome == DnsOutcome::InternalServer) continue;
    ++s.after_server_filter;
    if (stats) {
      domains_final.insert(slot.domain);
      hosts_final.insert(slot.host);
    }
    ++kept;
  }
  out.resize(kept);
  s.domains_all = domains_all.size();
  s.domains_after_internal_filter = domains_internal.size();
  s.domains_after_server_filter = domains_final.size();
  s.hosts_after_server_filter = hosts_final.size();
  std::vector<TimeKey> keys;
  sort_by_time(out, keys);
  return out;
}

std::vector<ConnEvent> reduce_proxy(std::span<const ProxyRecord> records,
                                    const DhcpTable& leases,
                                    const ProxyReductionConfig& config,
                                    ProxyReductionStats* stats) {
  ProxyReductionStats local;
  ProxyReductionStats& s = stats ? *stats : local;
  s = ProxyReductionStats{};
  s.total_records = records.size();

  std::unordered_set<std::string> domains;
  std::unordered_set<std::string> hosts;

  const ProxyReducer reducer(leases, config);
  std::vector<ConnEvent> out(records.size());
  std::size_t kept = 0;
  for (const ProxyRecord& rec : records) {
    ConnEvent& slot = out[kept];
    const ProxyOutcome outcome = reducer.reduce(fields_of(rec), slot);
    switch (outcome) {
      case ProxyOutcome::IpLiteral: ++s.ip_literal_destinations; break;
      case ProxyOutcome::Unresolved:
      case ProxyOutcome::KeptUnresolved: ++s.unresolved_sources; break;
      case ProxyOutcome::KeptResolved: ++s.resolved_sources; break;
    }
    if (!is_kept(outcome)) continue;
    if (stats) {
      domains.insert(slot.domain);
      hosts.insert(slot.host);
    }
    ++kept;
  }
  out.resize(kept);
  s.kept_records = kept;
  s.domains_all = domains.size();
  s.hosts_all = hosts.size();
  std::vector<TimeKey> keys;
  sort_by_time(out, keys);
  return out;
}

}  // namespace eid::logs
