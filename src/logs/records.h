// Log record types for the two data sources evaluated in the paper:
// anonymized DNS logs (the LANL dataset) and enterprise web-proxy logs
// (the AC dataset). Both reduce to a common ConnEvent stream that the
// profiling, timing-analysis and feature layers consume.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/ipv4.h"
#include "util/time.h"

namespace eid::logs {

/// DNS query types we distinguish; the reduction step keeps only A records
/// (§IV-A: "we first restrict our analysis only to A records").
enum class DnsType : std::uint8_t { A, AAAA, TXT, PTR, MX, CNAME, SRV, Other };

const char* dns_type_name(DnsType type);

/// One DNS query joined with its response (when one was observed).
struct DnsRecord {
  util::TimePoint ts = 0;
  std::string src;               ///< internal source host (anonymized IP in LANL)
  std::string domain;            ///< queried name, unfolded
  DnsType type = DnsType::A;
  std::optional<util::Ipv4> response_ip;  ///< A-record answer, when present
};

/// A DnsRecord's fields as views into the text they were parsed from (or
/// into a DnsRecord); valid only while that text is.
struct DnsFields {
  util::TimePoint ts = 0;
  std::string_view src;
  std::string_view domain;
  DnsType type = DnsType::A;
  std::optional<util::Ipv4> response_ip;
};

/// HTTP methods that appear in enterprise proxy logs.
enum class HttpMethod : std::uint8_t { Get, Post, Head, Put, Connect, Other };

const char* http_method_name(HttpMethod method);

/// One web-proxy log line (AC dataset flavor).
struct ProxyRecord {
  util::TimePoint ts = 0;        ///< collector-local until normalization
  std::string collector;         ///< collection device id (drives timezone fixup)
  std::string src_ip;            ///< DHCP/VPN-assigned source address
  std::string hostname;          ///< resolved source hostname (after normalization)
  std::string domain;            ///< destination domain, unfolded ("" if IP literal)
  std::optional<util::Ipv4> dest_ip;
  std::string url_path;          ///< path + query portion of the URL
  HttpMethod method = HttpMethod::Get;
  int status = 200;
  std::string user_agent;        ///< "" when the client sent no UA
  std::string referer;           ///< "" when the request carried no referer
};

/// A ProxyRecord's fields as views, with ProxyRecord's meaning ("" for a
/// "-" field); valid only while the viewed text is.
struct ProxyFields {
  util::TimePoint ts = 0;
  std::string_view collector;
  std::string_view src_ip;
  std::string_view hostname;
  std::string_view domain;
  std::optional<util::Ipv4> dest_ip;
  std::string_view url_path;
  HttpMethod method = HttpMethod::Get;
  int status = 200;
  std::string_view user_agent;
  std::string_view referer;
};

/// Canonical reduced event: one observed connection from an internal host to
/// an external (folded) domain. DNS reduction produces these without HTTP
/// context; proxy reduction fills every field.
struct ConnEvent {
  util::TimePoint ts = 0;
  std::string host;              ///< stable internal host identifier
  std::string domain;            ///< folded destination domain
  std::optional<util::Ipv4> dest_ip;
  std::string user_agent;        ///< "" = none / not available (DNS)
  bool has_referer = false;      ///< always false for DNS-derived events
  bool has_http_context = false; ///< true iff derived from proxy logs
};

}  // namespace eid::logs
