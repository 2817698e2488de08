#include "logs/io.h"

#include <array>
#include <charconv>

#include "util/strings.h"

namespace eid::logs {
namespace {

bool parse_i64(std::string_view text, std::int64_t& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_int(std::string_view text, int& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

DnsType dns_type_from(std::string_view text) {
  if (text == "A") return DnsType::A;
  if (text == "AAAA") return DnsType::AAAA;
  if (text == "TXT") return DnsType::TXT;
  if (text == "PTR") return DnsType::PTR;
  if (text == "MX") return DnsType::MX;
  if (text == "CNAME") return DnsType::CNAME;
  if (text == "SRV") return DnsType::SRV;
  return DnsType::Other;
}

HttpMethod method_from(std::string_view text) {
  if (text == "GET") return HttpMethod::Get;
  if (text == "POST") return HttpMethod::Post;
  if (text == "HEAD") return HttpMethod::Head;
  if (text == "PUT") return HttpMethod::Put;
  if (text == "CONNECT") return HttpMethod::Connect;
  return HttpMethod::Other;
}

}  // namespace

std::string format_dns_line(const DnsRecord& rec) {
  std::string out = std::to_string(rec.ts);
  out += '\t';
  out += rec.src;
  out += '\t';
  out += rec.domain;
  out += '\t';
  out += dns_type_name(rec.type);
  out += '\t';
  out += rec.response_ip ? util::format_ipv4(*rec.response_ip) : "-";
  return out;
}

bool parse_dns_fields(std::string_view line, DnsFields& out) {
  std::array<std::string_view, 5> fields;
  if (!util::split_exact(line, '\t', fields)) return false;
  if (!parse_i64(fields[0], out.ts)) return false;
  if (fields[1].empty() || fields[2].empty()) return false;
  out.src = fields[1];
  out.domain = fields[2];
  out.type = dns_type_from(fields[3]);
  out.response_ip.reset();
  if (fields[4] != "-") {
    out.response_ip = util::parse_ipv4(fields[4]);
    if (!out.response_ip) return false;
  }
  return true;
}

std::optional<DnsRecord> parse_dns_line(std::string_view line) {
  DnsFields fields;
  if (!parse_dns_fields(line, fields)) return std::nullopt;
  DnsRecord rec;
  rec.ts = fields.ts;
  rec.src = std::string(fields.src);
  rec.domain = std::string(fields.domain);
  rec.type = fields.type;
  rec.response_ip = fields.response_ip;
  return rec;
}

std::string format_proxy_line(const ProxyRecord& rec) {
  std::string out = std::to_string(rec.ts);
  const auto append = [&out](std::string_view field) {
    out += '\t';
    out += field.empty() ? std::string_view("-") : field;
  };
  append(rec.collector);
  append(rec.src_ip);
  append(rec.hostname);
  append(rec.domain);
  append(rec.dest_ip ? util::format_ipv4(*rec.dest_ip) : "-");
  append(rec.url_path);
  append(http_method_name(rec.method));
  append(std::to_string(rec.status));
  append(rec.user_agent);
  append(rec.referer);
  return out;
}

bool parse_proxy_fields(std::string_view line, ProxyFields& out) {
  std::array<std::string_view, 11> fields;
  if (!util::split_exact(line, '\t', fields)) return false;
  const auto value = [](std::string_view field) {
    return field == "-" ? std::string_view() : field;
  };
  if (!parse_i64(fields[0], out.ts)) return false;
  out.collector = value(fields[1]);
  out.src_ip = value(fields[2]);
  out.hostname = value(fields[3]);
  out.domain = value(fields[4]);
  out.dest_ip.reset();
  if (fields[5] != "-") {
    out.dest_ip = util::parse_ipv4(fields[5]);
    if (!out.dest_ip) return false;
  }
  out.url_path = value(fields[6]);
  out.method = method_from(fields[7]);
  if (!parse_int(fields[8], out.status)) return false;
  out.user_agent = value(fields[9]);
  out.referer = value(fields[10]);
  return true;
}

std::optional<ProxyRecord> parse_proxy_line(std::string_view line) {
  ProxyFields fields;
  if (!parse_proxy_fields(line, fields)) return std::nullopt;
  ProxyRecord rec;
  rec.ts = fields.ts;
  rec.collector = std::string(fields.collector);
  rec.src_ip = std::string(fields.src_ip);
  rec.hostname = std::string(fields.hostname);
  rec.domain = std::string(fields.domain);
  rec.dest_ip = fields.dest_ip;
  rec.url_path = std::string(fields.url_path);
  rec.method = fields.method;
  rec.status = fields.status;
  rec.user_agent = std::string(fields.user_agent);
  rec.referer = std::string(fields.referer);
  return rec;
}

}  // namespace eid::logs
