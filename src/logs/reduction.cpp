#include "logs/reduction.h"

#include <algorithm>
#include <array>
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

ProxyReducer::ProxyReducer(const DhcpTable& leases,
                           ProxyReductionConfig config)
    : leases_(&leases), config_(std::move(config)) {
  destinations_.keys.reserve(kMemoReserve);
  destinations_.values.reserve(kMemoReserve);
  sources_.keys.reserve(kMemoReserve);
  sources_.values.reserve(kMemoReserve);
}

template <typename Value>
Value& ProxyReducer::Memo<Value>::at(std::string_view key, bool& fresh) {
  if (keys.size() == kMemoCap) {
    keys = util::Interner();
    values.clear();
  }
  const util::InternId id = keys.intern(key);
  fresh = id == values.size();
  if (fresh) values.emplace_back();
  return values[id];
}

const ProxyReducer::Destination& ProxyReducer::destination(
    std::string_view raw) {
  bool fresh = false;
  Destination& dest = destinations_.at(raw, fresh);
  if (fresh) {
    dest.ip_literal = util::parse_ipv4(raw).has_value();
    if (!dest.ip_literal) fold_domain_into(raw, config_.fold_level, dest.folded);
  }
  return dest;
}

const ProxyReducer::Lease& ProxyReducer::lease(std::string_view src_ip,
                                               util::TimePoint ts) {
  bool fresh = false;
  Lease& entry = sources_.at(src_ip, fresh);
  if (fresh || entry.version != leases_->version() || ts < entry.start ||
      ts >= entry.until) {
    const LeaseAnswer answer = leases_->find_interval(src_ip, ts);
    entry.version = leases_->version();
    entry.start = answer.start;
    entry.until = answer.until;
    entry.found = answer.hostname != nullptr;
    if (entry.found) entry.hostname.assign(*answer.hostname);
  }
  return entry;
}

ProxyOutcome ProxyReducer::reduce(const ProxyFields& rec, ConnEvent& out) {
  // The paper drops destinations that are raw IP addresses.
  if (rec.domain.empty()) return ProxyOutcome::IpLiteral;
  const Destination& dest = destination(rec.domain);
  if (dest.ip_literal) return ProxyOutcome::IpLiteral;
  util::TimePoint ts = rec.ts;
  // A collector listed twice takes its first offset.
  for (const auto& [collector, offset] : config_.collector_utc_offsets) {
    if (collector == rec.collector) {
      ts = subtract_saturating(ts, offset);
      break;
    }
  }
  ProxyOutcome outcome = ProxyOutcome::KeptResolved;
  if (!rec.hostname.empty()) {
    out.host.assign(rec.hostname);
  } else if (const Lease& leased = lease(rec.src_ip, ts); leased.found) {
    out.host.assign(leased.hostname);
  } else {
    if (!config_.keep_unresolved_sources) return ProxyOutcome::Unresolved;
    out.host.assign(rec.src_ip);
    outcome = ProxyOutcome::KeptUnresolved;
  }
  out.ts = ts;
  out.domain.assign(dest.folded);
  out.dest_ip = rec.dest_ip;
  out.user_agent.assign(rec.user_agent);
  out.has_referer = !rec.referer.empty();
  out.has_http_context = true;
  return outcome;
}

void sort_by_time(std::span<ConnEvent> events, std::vector<TimeKey>& keys) {
  const std::size_t n = events.size();
  if (n < 2) return;
  // One pass finds the span and whether the events are already in order.
  util::TimePoint min = events[0].ts;
  util::TimePoint max = min;
  bool sorted = true;
  for (std::size_t i = 1; i < n; ++i) {
    const util::TimePoint ts = events[i].ts;
    sorted = sorted && events[i - 1].ts <= ts;
    min = std::min(min, ts);
    max = std::max(max, ts);
  }
  if (sorted) return;
  // LSD counting sort on the digits of ts - min, which fits 64 unsigned
  // bits for any pair of timestamps. Each pass is stable, so equal
  // timestamps keep their order; the keys ping-pong between the two
  // halves of `keys`.
  constexpr unsigned kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  const auto offset = [min](util::TimePoint ts) {
    return static_cast<std::uint64_t>(ts) - static_cast<std::uint64_t>(min);
  };
  const std::uint64_t span = offset(max);
  keys.resize(2 * n);
  std::span<TimeKey> from(keys.data(), n);
  std::span<TimeKey> to(keys.data() + n, n);
  for (std::size_t i = 0; i < n; ++i) from[i] = {events[i].ts, i};
  std::array<std::size_t, kDigitMask + 1> counts;
  for (unsigned shift = 0; shift < 64 && (span >> shift) != 0;
       shift += kDigitBits) {
    counts.fill(0);
    for (const TimeKey& key : from) {
      ++counts[(offset(key.first) >> shift) & kDigitMask];
    }
    std::size_t at = 0;
    for (std::size_t& count : counts) {
      const std::size_t digit_count = count;
      count = at;
      at += digit_count;
    }
    for (const TimeKey& key : from) {
      to[counts[(offset(key.first) >> shift) & kDigitMask]++] = key;
    }
    std::swap(from, to);
  }
  // Position i takes the event at from[i].second. Follow each cycle of
  // that permutation once, marking a placed position by pointing its key
  // at itself.
  for (std::size_t start = 0; start < n; ++start) {
    if (from[start].second == start) continue;
    ConnEvent held = std::move(events[start]);
    std::size_t at = start;
    while (from[at].second != start) {
      const std::size_t source = from[at].second;
      events[at] = std::move(events[source]);
      from[at].second = at;
      at = source;
    }
    events[at] = std::move(held);
    from[at].second = at;
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

  ProxyReducer reducer(leases, config);
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
