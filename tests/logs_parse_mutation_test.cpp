// Seeded mutation tests for the TSV line parsers: proxy lines, DNS lines and
// DHCP lease lines. Each mutant starts as a valid line from a corpus built
// here and takes one to three mutations — bit flip, inserted or deleted
// tab, truncation, a field replaced by "-", a 4-digit or >255 octet, a
// non-digit or overflowing ts/status, a stray byte. The allocation-free
// parsers (logs::parse_*_fields, util::parse_ipv4, logs::fold_domain and
// the DHCP reader) must then agree with an oracle: the split-based parsers
// they replaced, copied below. Both must accept exactly the same lines,
// with equal fields. The proxy mutants also go through api::TsvFileSource
// as one file, whose chunks must equal the oracle's lines reduced one by
// one. Run under ASan + UBSan in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/sources.h"
#include "logs/dhcp.h"
#include "logs/files.h"
#include "logs/folding.h"
#include "logs/io.h"
#include "logs/reduction.h"
#include "util/ipv4.h"
#include "util/rng.h"

namespace eid::logs {
namespace {

constexpr int kMutantsPerParser = 15000;
constexpr int kDhcpMutants = 5000;

// ---------------------------------------------------------------------------
// Oracle: the split-based parsers, kept as they were before the in-place
// tokenizer. The one deliberate change is marked in
// has_two_label_public_suffix.

namespace oracle {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool is_all_digits(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::optional<util::Ipv4> parse_ipv4(std::string_view text) {
  const auto parts = split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const auto part : parts) {
    if (!is_all_digits(part) || part.size() > 3) return std::nullopt;
    std::uint32_t octet = 0;
    for (char c : part) octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
    if (octet > 255) return std::nullopt;
    value = (value << 8) | octet;
  }
  return util::Ipv4{value};
}

constexpr std::array<std::string_view, 12> kTwoLabelSuffixes = {
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au",
    "co.jp", "com.br", "com.cn", "co.in", "co.kr", "com.mx",
};

bool has_two_label_public_suffix(std::string_view domain) {
  const auto labels = split(domain, '.');
  if (labels.size() < 2) return false;
  const std::string tail = std::string(labels[labels.size() - 2]) + "." +
                           std::string(labels[labels.size() - 1]);
  for (const auto suffix : kTwoLabelSuffixes) {
    // Deliberate change: the suffix is compared case-insensitively (the
    // original compared `tail == suffix`, so "news.BBC.CO.UK" folded to
    // "co.uk").
    if (to_lower(tail) == suffix) return true;
  }
  return false;
}

std::string fold_domain(std::string_view domain, FoldLevel level) {
  while (!domain.empty() && domain.back() == '.') domain.remove_suffix(1);
  while (!domain.empty() && domain.front() == '.') domain.remove_prefix(1);
  const auto labels = split(domain, '.');
  std::size_t keep = static_cast<std::size_t>(level);
  if (has_two_label_public_suffix(domain)) ++keep;
  if (labels.size() <= keep) return to_lower(domain);
  std::string out;
  for (std::size_t i = labels.size() - keep; i < labels.size(); ++i) {
    if (!out.empty()) out += '.';
    out += to_lower(labels[i]);
  }
  return out;
}

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

std::optional<DnsRecord> parse_dns_line(std::string_view line) {
  const auto fields = split(line, '\t');
  if (fields.size() != 5) return std::nullopt;
  DnsRecord rec;
  if (!parse_i64(fields[0], rec.ts)) return std::nullopt;
  if (fields[1].empty() || fields[2].empty()) return std::nullopt;
  rec.src = std::string(fields[1]);
  rec.domain = std::string(fields[2]);
  rec.type = dns_type_from(fields[3]);
  if (fields[4] != "-") {
    rec.response_ip = parse_ipv4(fields[4]);
    if (!rec.response_ip) return std::nullopt;
  }
  return rec;
}

std::optional<ProxyRecord> parse_proxy_line(std::string_view line) {
  const auto fields = split(line, '\t');
  if (fields.size() != 11) return std::nullopt;
  const auto value = [](std::string_view field) {
    return field == "-" ? std::string() : std::string(field);
  };
  ProxyRecord rec;
  if (!parse_i64(fields[0], rec.ts)) return std::nullopt;
  rec.collector = value(fields[1]);
  rec.src_ip = value(fields[2]);
  rec.hostname = value(fields[3]);
  rec.domain = value(fields[4]);
  if (fields[5] != "-") {
    rec.dest_ip = parse_ipv4(fields[5]);
    if (!rec.dest_ip) return std::nullopt;
  }
  rec.url_path = value(fields[6]);
  rec.method = method_from(fields[7]);
  if (!parse_int(fields[8], rec.status)) return std::nullopt;
  rec.user_agent = value(fields[9]);
  rec.referer = value(fields[10]);
  return rec;
}

std::optional<DhcpLease> parse_dhcp_line(std::string_view line) {
  const auto fields = split(line, '\t');
  if (fields.size() != 4) return std::nullopt;
  DhcpLease lease;
  if (fields[0].empty() || fields[3].empty()) return std::nullopt;
  lease.ip = std::string(fields[0]);
  if (!parse_i64(fields[1], lease.start)) return std::nullopt;
  if (!parse_i64(fields[2], lease.end)) return std::nullopt;
  if (lease.end < lease.start) return std::nullopt;
  lease.hostname = std::string(fields[3]);
  return lease;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Corpus and mutations

template <std::size_t N>
std::string_view pick(util::Rng& rng, const std::array<std::string_view, N>& items) {
  return items[rng.index(N)];
}

std::string random_ip(util::Rng& rng) {
  return util::format_ipv4(util::Ipv4{static_cast<std::uint32_t>(rng.next_u64())});
}

constexpr std::array<std::string_view, 14> kDomains = {
    "news.nbc.com",   "WWW.Example.COM", "news.bbc.co.uk", "NEWS.BBC.CO.UK",
    "x..com",         "a.b.c.d.example.org", "tracker.co.jp.", ".lead.example.net",
    "10.1.2.3",       "256.1.2.3",       "single",         "q7.a.b.c3",
    "cdn.Shop.COM.au", "..",
};

ProxyRecord random_proxy(util::Rng& rng) {
  ProxyRecord rec;
  rec.ts = 1391212800 + rng.uniform_int(-90000, 90000);
  rec.collector = std::string(pick(rng, std::array<std::string_view, 3>{"px-eu", "px-us", ""}));
  rec.src_ip = rng.chance(0.9) ? random_ip(rng) : "";
  rec.hostname = rng.chance(0.3) ? "ws-" + std::to_string(rng.index(50)) + ".corp" : "";
  rec.domain = std::string(pick(rng, kDomains));
  if (rng.chance(0.7)) rec.dest_ip = util::Ipv4{static_cast<std::uint32_t>(rng.next_u64())};
  rec.url_path = rng.chance(0.8) ? "/p/" + std::to_string(rng.index(1000)) + "?q=1" : "";
  rec.method = static_cast<HttpMethod>(rng.index(6));
  constexpr std::array<int, 4> kStatuses = {200, 302, 404, 500};
  rec.status = kStatuses[rng.index(kStatuses.size())];
  rec.user_agent = rng.chance(0.8) ? "Mozilla/5.0 (X11; Linux)" : "";
  rec.referer = rng.chance(0.5) ? "start.example.com" : "";
  return rec;
}

DnsRecord random_dns(util::Rng& rng) {
  DnsRecord rec;
  rec.ts = 1360000000 + rng.uniform_int(0, 86400);
  rec.src = rng.chance(0.5) ? random_ip(rng) : "C" + std::to_string(rng.index(900));
  rec.domain = std::string(pick(rng, kDomains));
  rec.type = static_cast<DnsType>(rng.index(8));
  if (rng.chance(0.6)) rec.response_ip = util::Ipv4{static_cast<std::uint32_t>(rng.next_u64())};
  return rec;
}

std::string random_lease_line(util::Rng& rng) {
  const std::int64_t start = 1391212800 + rng.uniform_int(0, 86400);
  return random_ip(rng) + '\t' + std::to_string(start) + '\t' +
         std::to_string(start + rng.uniform_int(-10, 7200)) + '\t' + "ws-" +
         std::to_string(rng.index(200)) + ".corp";
}

/// Byte ranges of the tab-separated fields of `line`.
std::vector<std::pair<std::size_t, std::size_t>> field_ranges(const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      out.emplace_back(start, i - start);
      start = i + 1;
    }
  }
  return out;
}

void replace_field(std::string& line, std::size_t field, std::string_view with) {
  const auto ranges = field_ranges(line);
  if (field >= ranges.size()) return;
  line.replace(ranges[field].first, ranges[field].second, with);
}

void mutate_once(std::string& line, util::Rng& rng) {
  constexpr std::array<std::string_view, 16> kBadNumbers = {
      "99999999999999999999", "9223372036854775807", "9223372036854775808",
      "-9223372036854775809", "2147483647", "2147483648", "-5", "+5", " 5",
      "5 ", "12a4", "", "0x10", "-", "00017", "1e5",
  };
  constexpr std::array<std::string_view, 9> kBadOctets = {
      "1234", "256", "999", "0255", "00", "", "25a", "-1", "0000",
  };
  constexpr std::string_view kStrayBytes("\t.-0123456789aZ \r\x01\x7f\xff", 20);
  switch (rng.index(8)) {
    case 0:  // bit flip
      if (!line.empty()) line[rng.index(line.size())] ^= static_cast<char>(1u << rng.index(8));
      break;
    case 1:  // inserted tab
      line.insert(rng.index(line.size() + 1), 1, '\t');
      break;
    case 2: {  // deleted tab
      std::vector<std::size_t> tabs;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '\t') tabs.push_back(i);
      }
      if (!tabs.empty()) line.erase(tabs[rng.index(tabs.size())], 1);
      break;
    }
    case 3:  // truncation
      line.resize(rng.index(line.size() + 1));
      break;
    case 4:  // a field replaced by "-"
      replace_field(line, rng.index(field_ranges(line).size()), "-");
      break;
    case 5: {  // one octet of a dotted field made 4-digit, >255 or otherwise bad
      const auto ranges = field_ranges(line);
      const auto [start, size] = ranges[rng.index(ranges.size())];
      const std::string field = line.substr(start, size);
      const auto parts = oracle::split(field, '.');
      const std::size_t victim = rng.index(parts.size());
      std::string out;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += '.';
        out += i == victim ? pick(rng, kBadOctets) : parts[i];
      }
      line.replace(start, size, out);
      break;
    }
    case 6:  // ts (field 0) or status (field 8) non-digit or overflowing
      replace_field(line, rng.chance(0.5) ? 0 : 8, pick(rng, kBadNumbers));
      break;
    default:  // a stray byte overwritten
      if (!line.empty()) line[rng.index(line.size())] = kStrayBytes[rng.index(kStrayBytes.size())];
      break;
  }
}

std::string mutant(std::string line, util::Rng& rng) {
  const std::size_t rounds = 1 + rng.index(3);
  for (std::size_t i = 0; i < rounds; ++i) mutate_once(line, rng);
  return line;
}

/// Fold and IPv4 parsing of every field of a mutant against the oracle —
/// mutated fields are a wider input space than whole accepted lines.
void expect_field_helpers_agree(const std::string& line) {
  for (const std::string_view field : oracle::split(line, '\t')) {
    ASSERT_EQ(util::parse_ipv4(field), oracle::parse_ipv4(field)) << field;
    ASSERT_EQ(fold_domain(field, FoldLevel::SecondLevel),
              oracle::fold_domain(field, FoldLevel::SecondLevel))
        << field;
    ASSERT_EQ(fold_domain(field, FoldLevel::ThirdLevel),
              oracle::fold_domain(field, FoldLevel::ThirdLevel))
        << field;
  }
}

/// The mutants as one file through api::TsvFileSource (block reads, the
/// memoized reducer, the counting-sort chunk order) against the oracle:
/// each newline-separated line parsed by oracle::parse_proxy_line and
/// reduced by a fresh ProxyReducer (no memo carried over), cut into chunks
/// of kDefaultChunkEvents parsed lines, each stable-sorted by ts.
void expect_source_matches_oracle(const std::string& text,
                                  const DhcpTable& leases,
                                  const ProxyReductionConfig& config) {
  std::vector<std::vector<ConnEvent>> expected;
  std::vector<ConnEvent> chunk;
  std::size_t parsed = 0;
  std::size_t malformed = 0;
  const auto flush = [&] {
    std::stable_sort(chunk.begin(), chunk.end(),
                     [](const ConnEvent& a, const ConnEvent& b) {
                       return a.ts < b.ts;
                     });
    if (!chunk.empty()) expected.push_back(std::move(chunk));
    chunk.clear();
  };
  for (const std::string_view line : oracle::split(text, '\n')) {
    if (line.empty()) continue;
    const std::optional<ProxyRecord> rec = oracle::parse_proxy_line(line);
    if (!rec) {
      ++malformed;
      continue;
    }
    const ProxyFields fields{rec->ts,       rec->collector, rec->src_ip,
                             rec->hostname, rec->domain,    rec->dest_ip,
                             rec->url_path, rec->method,    rec->status,
                             rec->user_agent, rec->referer};
    ConnEvent event;
    if (is_kept(ProxyReducer(leases, config).reduce(fields, event))) {
      chunk.push_back(std::move(event));
    }
    if (++parsed % api::kDefaultChunkEvents == 0) flush();
  }
  flush();

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("eid-proxy-mutants-" + std::to_string(::getpid()) + ".tsv");
  { std::ofstream(path, std::ios::binary) << text; }
  api::TsvFileSource source(path, 0, leases, config);
  std::vector<std::vector<ConnEvent>> actual;
  while (const auto got = source.next_chunk()) {
    actual.emplace_back(got->events.begin(), got->events.end());
  }
  std::filesystem::remove(path);
  EXPECT_EQ(source.stats().parsed, parsed);
  EXPECT_EQ(source.stats().malformed, malformed);
  EXPECT_EQ(source.stats().byte_offset, text.size());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(actual[c].size(), expected[c].size()) << "chunk " << c;
    for (std::size_t i = 0; i < expected[c].size(); ++i) {
      const ConnEvent& a = actual[c][i];
      const ConnEvent& e = expected[c][i];
      ASSERT_TRUE(a.ts == e.ts && a.host == e.host && a.domain == e.domain &&
                  a.dest_ip == e.dest_ip && a.user_agent == e.user_agent &&
                  a.has_referer == e.has_referer &&
                  a.has_http_context == e.has_http_context)
          << "chunk " << c << " event " << i;
    }
  }
}

// ---------------------------------------------------------------------------

TEST(ParseMutationTest, ProxyLinesMatchTheOracle) {
  util::Rng rng(0x70c5);
  const DhcpTable leases;
  ProxyReductionConfig config;
  config.collector_utc_offsets = {{"px-eu", 3600}, {"px-us", -18000}};
  ProxyReducer reducer(leases, config);
  std::size_t accepted = 0;
  std::string file;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string line = mutant(format_proxy_line(random_proxy(rng)), rng);
    file += line + '\n';
    const std::optional<ProxyRecord> expected = oracle::parse_proxy_line(line);
    const std::optional<ProxyRecord> record = parse_proxy_line(line);
    ProxyFields fields;
    const bool ok = parse_proxy_fields(line, fields);
    ASSERT_EQ(ok, expected.has_value()) << line;
    ASSERT_EQ(record.has_value(), expected.has_value()) << line;
    expect_field_helpers_agree(line);
    if (!expected) continue;
    ++accepted;
    for (const ProxyRecord* rec : {&*record, &*expected}) {
      // The views and the owning wrapper both hold the oracle's fields.
      ASSERT_EQ(fields.ts, rec->ts) << line;
      ASSERT_EQ(fields.collector, rec->collector) << line;
      ASSERT_EQ(fields.src_ip, rec->src_ip) << line;
      ASSERT_EQ(fields.hostname, rec->hostname) << line;
      ASSERT_EQ(fields.domain, rec->domain) << line;
      ASSERT_EQ(fields.dest_ip, rec->dest_ip) << line;
      ASSERT_EQ(fields.url_path, rec->url_path) << line;
      ASSERT_EQ(fields.method, rec->method) << line;
      ASSERT_EQ(fields.status, rec->status) << line;
      ASSERT_EQ(fields.user_agent, rec->user_agent) << line;
      ASSERT_EQ(fields.referer, rec->referer) << line;
    }
    // An accepted mutant reduces as the oracle's helpers say it should.
    ConnEvent event;
    const ProxyOutcome outcome = reducer.reduce(fields, event);
    const bool ip_literal = expected->domain.empty() ||
                            oracle::parse_ipv4(expected->domain).has_value();
    ASSERT_EQ(outcome == ProxyOutcome::IpLiteral, ip_literal) << line;
    if (is_kept(outcome)) {
      ASSERT_EQ(event.domain,
                oracle::fold_domain(expected->domain, FoldLevel::SecondLevel))
          << line;
    }
  }
  // The mutations reach both sides of the accept/reject line.
  EXPECT_GT(accepted, static_cast<std::size_t>(kMutantsPerParser / 20));
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutantsPerParser * 3 / 4));
  expect_source_matches_oracle(file, leases, config);
}

TEST(ParseMutationTest, DnsLinesMatchTheOracle) {
  util::Rng rng(0xd45);
  DnsReductionConfig config;
  config.internal_suffixes = {"corp.internal"};
  const DnsReducer reducer(config);
  std::size_t accepted = 0;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string line = mutant(format_dns_line(random_dns(rng)), rng);
    const std::optional<DnsRecord> expected = oracle::parse_dns_line(line);
    const std::optional<DnsRecord> record = parse_dns_line(line);
    DnsFields fields;
    const bool ok = parse_dns_fields(line, fields);
    ASSERT_EQ(ok, expected.has_value()) << line;
    ASSERT_EQ(record.has_value(), expected.has_value()) << line;
    expect_field_helpers_agree(line);
    if (!expected) continue;
    ++accepted;
    for (const DnsRecord* rec : {&*record, &*expected}) {
      ASSERT_EQ(fields.ts, rec->ts) << line;
      ASSERT_EQ(fields.src, rec->src) << line;
      ASSERT_EQ(fields.domain, rec->domain) << line;
      ASSERT_EQ(fields.type, rec->type) << line;
      ASSERT_EQ(fields.response_ip, rec->response_ip) << line;
    }
    ConnEvent event;
    if (reducer.reduce(fields, event) != DnsOutcome::NotA) {
      ASSERT_EQ(event.domain,
                oracle::fold_domain(expected->domain, FoldLevel::ThirdLevel))
          << line;
    }
  }
  EXPECT_GT(accepted, static_cast<std::size_t>(kMutantsPerParser / 20));
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutantsPerParser * 3 / 4));
}

TEST(ParseMutationTest, DhcpLeaseLinesMatchTheOracle) {
  util::Rng rng(0xd7c9);
  std::string content;
  for (int i = 0; i < kDhcpMutants; ++i) {
    content += rng.chance(0.2) ? random_lease_line(rng)
                               : mutant(random_lease_line(rng), rng);
    content += '\n';
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("eid-dhcp-mutants-" + std::to_string(::getpid()) + ".tsv");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  FileReadStats stats;
  const std::vector<DhcpLease> leases = read_dhcp_file(path, &stats);
  std::filesystem::remove(path);

  // What the reader must have done: getline over the bytes (a mutation
  // may have introduced a newline), empty lines skipped, every other line
  // parsed or counted malformed.
  std::vector<DhcpLease> expected;
  std::size_t lines = 0;
  std::size_t malformed = 0;
  for (const std::string_view line : oracle::split(content, '\n')) {
    if (line.empty()) continue;
    ++lines;
    if (auto lease = oracle::parse_dhcp_line(line)) {
      expected.push_back(std::move(*lease));
    } else {
      ++malformed;
    }
  }
  EXPECT_TRUE(stats.opened);
  EXPECT_EQ(stats.lines, lines);
  EXPECT_EQ(stats.parsed, expected.size());
  EXPECT_EQ(stats.malformed, malformed);
  ASSERT_EQ(leases.size(), expected.size());
  for (std::size_t i = 0; i < leases.size(); ++i) {
    EXPECT_EQ(leases[i].ip, expected[i].ip) << i;
    EXPECT_EQ(leases[i].start, expected[i].start) << i;
    EXPECT_EQ(leases[i].end, expected[i].end) << i;
    EXPECT_EQ(leases[i].hostname, expected[i].hostname) << i;
  }
  EXPECT_GT(expected.size(), static_cast<std::size_t>(kDhcpMutants / 5));
  EXPECT_GT(malformed, static_cast<std::size_t>(kDhcpMutants / 5));
}

}  // namespace
}  // namespace eid::logs
