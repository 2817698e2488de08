// Data normalization and reduction (§IV-A).
//
// DNS (LANL): keep only A records, drop queries for internal resources and
// queries issued by internal servers, fold domains. Each stage's record and
// distinct-domain counts are exposed so Fig. 2 (domains remaining after each
// reduction step) can be regenerated.
//
// Proxy (AC): normalize collector-local timestamps to UTC, resolve DHCP/VPN
// source addresses to stable hostnames, drop IP-literal destinations, fold
// domains, and extract the fields used downstream (UA, referer, status).
//
// Both flavors have one per-record implementation (DnsReducer /
// ProxyReducer) that reduces a record's field views straight into a
// caller-owned ConnEvent. reduce_dns / reduce_proxy loop it over owned
// records; api::TsvFileSource runs it on each line as it is tokenized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "logs/dhcp.h"
#include "logs/folding.h"
#include "logs/records.h"
#include "util/interner.h"

namespace eid::logs {

/// Configuration for LANL-style DNS reduction.
struct DnsReductionConfig {
  /// Suffixes (folded or unfolded) identifying internal resources to drop,
  /// e.g. {"lanl.internal"}.
  std::vector<std::string> internal_suffixes;
  /// Source hosts that are internal servers (their queries are dropped,
  /// since the detector targets client compromise).
  util::TransparentStringSet internal_servers;
  /// LANL domain names are anonymized, so the paper folds to third level.
  FoldLevel fold_level = FoldLevel::ThirdLevel;
};

/// Per-stage counters matching the series of Fig. 2.
struct DnsReductionStats {
  std::size_t total_records = 0;
  std::size_t a_records = 0;
  std::size_t after_internal_query_filter = 0;
  std::size_t after_server_filter = 0;

  /// Distinct folded domains surviving each stage.
  std::size_t domains_all = 0;
  std::size_t domains_after_internal_filter = 0;
  std::size_t domains_after_server_filter = 0;
  std::size_t hosts_after_server_filter = 0;
};

/// How far one DNS record got through the reduction.
enum class DnsOutcome : std::uint8_t {
  NotA,            ///< dropped: not an A record
  InternalQuery,   ///< dropped after folding: an internal resource
  InternalServer,  ///< dropped after folding: queried by an internal server
  Kept,
};

/// Per-record DNS reduction. The config must outlive the reducer.
class DnsReducer {
 public:
  explicit DnsReducer(const DnsReductionConfig& config) : config_(&config) {}

  /// Reduce `rec` into `out`. Every outcome but NotA leaves the folded
  /// domain in `out.domain`; Kept writes every field of `out`. Strings are
  /// assigned, so a reused `out` keeps its capacity.
  DnsOutcome reduce(const DnsFields& rec, ConnEvent& out) const;

 private:
  const DnsReductionConfig* config_;
};

/// Reduce one day of DNS records to the canonical event stream, in
/// timestamp order. The distinct-domain and -host counts are only
/// computed when `stats` is given.
std::vector<ConnEvent> reduce_dns(std::span<const DnsRecord> records,
                                  const DnsReductionConfig& config,
                                  DnsReductionStats* stats = nullptr);

/// Configuration for AC-style proxy normalization + reduction.
struct ProxyReductionConfig {
  /// UTC offset in seconds for each collection device (collector id -> offset
  /// to SUBTRACT from local timestamps). Unknown collectors are assumed UTC.
  std::vector<std::pair<std::string, int>> collector_utc_offsets;
  FoldLevel fold_level = FoldLevel::SecondLevel;
  /// When a source address has no DHCP/VPN lease, fall back to using the raw
  /// IP as the host identifier instead of dropping the record.
  bool keep_unresolved_sources = true;
};

struct ProxyReductionStats {
  std::size_t total_records = 0;
  std::size_t ip_literal_destinations = 0;  ///< dropped (§IV-A)
  std::size_t resolved_sources = 0;         ///< DHCP/VPN lease matched
  std::size_t unresolved_sources = 0;
  std::size_t kept_records = 0;
  std::size_t domains_all = 0;
  std::size_t hosts_all = 0;
};

/// How far one proxy record got through the reduction.
enum class ProxyOutcome : std::uint8_t {
  IpLiteral,       ///< dropped: the destination is empty or an IP literal
  Unresolved,      ///< dropped: no lease, and keep_unresolved_sources is off
  KeptUnresolved,  ///< kept under its raw source address (no lease)
  KeptResolved,    ///< kept under its hostname or leased name
};

constexpr bool is_kept(ProxyOutcome outcome) {
  return outcome == ProxyOutcome::KeptUnresolved ||
         outcome == ProxyOutcome::KeptResolved;
}

/// Per-record proxy normalization + reduction. The leases must outlive
/// the reducer; the config is copied.
///
/// A day's lines repeat a few hundred destinations and source addresses,
/// so the reducer does the per-value work once per distinct value and
/// memoizes it:
///  * each raw destination's IP-literal verdict and folded form;
///  * each source address's last lease answer with the interval it holds
///    for (DhcpTable::find_interval), reused while `ts` stays inside it and
///    the table's version() is unchanged.
/// A memo that holds kMemoCap keys is emptied at its next lookup, so its
/// memory stays bounded on any input. Both are sized for
/// kMemoReserve keys on construction, more than a day file of the
/// canonical world holds (~850 destinations, ~720 sources): tables that
/// grew while a chunk's event strings were being allocated fragmented the
/// heap and raised bench/e2e's peak RSS by a fifth.
class ProxyReducer {
 public:
  static constexpr std::size_t kMemoCap = std::size_t{1} << 16;
  static constexpr std::size_t kMemoReserve = 2048;

  ProxyReducer(const DhcpTable& leases, ProxyReductionConfig config);

  /// Reduce `rec` into `out`; a kept outcome writes every field of `out`.
  /// Strings are assigned, so a reused `out` keeps its capacity.
  ProxyOutcome reduce(const ProxyFields& rec, ConnEvent& out);

 private:
  struct Destination {
    bool ip_literal = false;
    std::string folded;  ///< fold_domain of the raw name; "" if ip_literal
  };
  struct Lease {
    std::uint64_t version = 0;  ///< DhcpTable::version() when looked up
    util::TimePoint start = 0;  ///< the answer holds over [start, until)
    util::TimePoint until = 0;
    bool found = false;
    std::string hostname;
  };

  /// Values keyed by distinct strings, emptied once full (kMemoCap keys).
  template <typename Value>
  struct Memo {
    util::Interner keys;
    std::vector<Value> values;

    /// The value for `key`, default-constructed (`fresh`) on first sight.
    Value& at(std::string_view key, bool& fresh);
  };

  const Destination& destination(std::string_view raw);
  const Lease& lease(std::string_view src_ip, util::TimePoint ts);

  const DhcpTable* leases_;
  ProxyReductionConfig config_;
  Memo<Destination> destinations_;
  Memo<Lease> sources_;
};

/// Normalize and reduce one day of proxy records, in timestamp order. The
/// distinct-domain and -host counts are only computed when `stats` is
/// given.
std::vector<ConnEvent> reduce_proxy(std::span<const ProxyRecord> records,
                                    const DhcpTable& leases,
                                    const ProxyReductionConfig& config,
                                    ProxyReductionStats* stats = nullptr);

/// A timestamp and the position of its event: sort_by_time's sort key.
using TimeKey = std::pair<util::TimePoint, std::size_t>;

/// Stable sort by timestamp (equal timestamps keep their order). Returns
/// at once when `events` is already sorted; otherwise orders one key per
/// event with a stable LSD counting sort over ts - min(ts), 11 bits per
/// pass and as many passes as the span max - min needs (two for a day),
/// then moves each event once to its place. `keys` is scratch a caller may
/// reuse across calls.
void sort_by_time(std::span<ConnEvent> events, std::vector<TimeKey>& keys);

}  // namespace eid::logs
