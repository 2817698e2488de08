// Tab-separated serialization for log records, so examples and operators can
// persist simulated datasets and re-ingest them like real log files.
// Parsers are total: malformed lines are rejected (false / std::nullopt)
// and counted by callers rather than aborting a multi-terabyte ingest.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "logs/records.h"

namespace eid::logs {

/// DnsRecord <-> "ts\tsrc\tdomain\ttype\tresponse_ip".
std::string format_dns_line(const DnsRecord& rec);
/// Split and validate one DNS line in place: `out` views into `line`.
/// False for a malformed line (`out` is then unspecified). Allocates
/// nothing.
bool parse_dns_fields(std::string_view line, DnsFields& out);
/// parse_dns_fields copied into an owning record.
std::optional<DnsRecord> parse_dns_line(std::string_view line);

/// ProxyRecord <-> TSV with all HTTP context fields ("-" for an empty one).
std::string format_proxy_line(const ProxyRecord& rec);
/// Split and validate one proxy line in place, like parse_dns_fields.
bool parse_proxy_fields(std::string_view line, ProxyFields& out);
/// parse_proxy_fields copied into an owning record.
std::optional<ProxyRecord> parse_proxy_line(std::string_view line);

}  // namespace eid::logs
