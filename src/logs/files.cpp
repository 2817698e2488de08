#include "logs/files.h"

#include <array>
#include <charconv>
#include <fstream>

#include "logs/io.h"
#include "util/strings.h"

namespace eid::logs {
namespace {

template <typename Record, typename ParseFn>
std::vector<Record> read_lines(const std::filesystem::path& path,
                               FileReadStats* stats, ParseFn&& parse) {
  FileReadStats local;
  FileReadStats& s = stats ? *stats : local;
  s = FileReadStats{};
  std::vector<Record> out;
  std::ifstream in(path);
  if (!in) return out;
  s.opened = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++s.lines;
    if (auto rec = parse(line)) {
      out.push_back(std::move(*rec));
      ++s.parsed;
    } else {
      ++s.malformed;
    }
  }
  return out;
}

bool parse_i64_field(std::string_view text, std::int64_t& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::optional<DhcpLease> parse_dhcp_line(std::string_view line) {
  std::array<std::string_view, 4> fields;
  if (!util::split_exact(line, '\t', fields)) return std::nullopt;
  DhcpLease lease;
  if (fields[0].empty() || fields[3].empty()) return std::nullopt;
  lease.ip = std::string(fields[0]);
  if (!parse_i64_field(fields[1], lease.start)) return std::nullopt;
  if (!parse_i64_field(fields[2], lease.end)) return std::nullopt;
  if (lease.end < lease.start) return std::nullopt;
  lease.hostname = std::string(fields[3]);
  return lease;
}

}  // namespace

std::vector<DnsRecord> read_dns_file(const std::filesystem::path& path,
                                     FileReadStats* stats) {
  return read_lines<DnsRecord>(path, stats,
                               [](const std::string& l) { return parse_dns_line(l); });
}

std::vector<ProxyRecord> read_proxy_file(const std::filesystem::path& path,
                                         FileReadStats* stats) {
  return read_lines<ProxyRecord>(
      path, stats, [](const std::string& l) { return parse_proxy_line(l); });
}

std::vector<DhcpLease> read_dhcp_file(const std::filesystem::path& path,
                                      FileReadStats* stats) {
  return read_lines<DhcpLease>(
      path, stats, [](const std::string& l) { return parse_dhcp_line(l); });
}

bool write_dns_file(const std::filesystem::path& path,
                    const std::vector<DnsRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& rec : records) out << format_dns_line(rec) << '\n';
  return static_cast<bool>(out);
}

bool write_proxy_file(const std::filesystem::path& path,
                      const std::vector<ProxyRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& rec : records) out << format_proxy_line(rec) << '\n';
  return static_cast<bool>(out);
}

bool write_dhcp_file(const std::filesystem::path& path,
                     const std::vector<DhcpLease>& leases) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& lease : leases) {
    out << lease.ip << '\t' << lease.start << '\t' << lease.end << '\t'
        << lease.hostname << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace eid::logs
