// Unit tests for every EventSource adapter: chunk boundaries, day tags,
// reset semantics, malformed-line accounting (TsvFileSource) and parity
// with the batch reducers each adapter wraps.
#include "api/sources.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>

#include "api/event_source.h"
#include "logs/files.h"
#include "logs/io.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eid::api {
namespace {

bool same_event(const logs::ConnEvent& a, const logs::ConnEvent& b) {
  return a.ts == b.ts && a.host == b.host && a.domain == b.domain &&
         a.dest_ip == b.dest_ip && a.user_agent == b.user_agent &&
         a.has_referer == b.has_referer &&
         a.has_http_context == b.has_http_context;
}

std::vector<logs::ConnEvent> drain(EventSource& source,
                                   std::vector<std::size_t>* chunk_sizes = nullptr,
                                   std::vector<util::Day>* days = nullptr) {
  std::vector<logs::ConnEvent> out;
  while (auto chunk = source.next_chunk()) {
    if (chunk_sizes != nullptr) chunk_sizes->push_back(chunk->events.size());
    if (days != nullptr) days->push_back(chunk->day);
    out.insert(out.end(), chunk->events.begin(), chunk->events.end());
  }
  return out;
}

// ---- VectorSource ----

TEST(VectorSourceTest, ChunksCoverEveryEventInOrder) {
  test::DayBuilder builder;
  for (int i = 0; i < 10; ++i) {
    builder.visit("h" + std::to_string(i % 3), "d" + std::to_string(i) + ".com",
                  1000 + i);
  }
  const auto& events = builder.events();

  for (const std::size_t chunk_size : {1u, 3u, 10u, 4096u}) {
    VectorSource source(42, &events, chunk_size);
    std::vector<std::size_t> sizes;
    std::vector<util::Day> days;
    const auto streamed = drain(source, &sizes, &days);
    ASSERT_EQ(streamed.size(), events.size()) << chunk_size;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_TRUE(same_event(events[i], streamed[i])) << i;
    }
    for (const std::size_t size : sizes) EXPECT_LE(size, chunk_size);
    for (const util::Day day : days) EXPECT_EQ(day, 42);
    // Exhausted until reset.
    EXPECT_FALSE(source.next_chunk().has_value());
    EXPECT_TRUE(source.reset());
    EXPECT_EQ(drain(source).size(), events.size());
  }
}

TEST(VectorSourceTest, OwningFormKeepsEventsAlive) {
  test::DayBuilder builder;
  builder.visit("h0", "a.com", 1).visit("h1", "b.com", 2);
  VectorSource source(7, builder.events(), 1);  // copy moved into the source
  std::vector<std::size_t> sizes;
  EXPECT_EQ(drain(source, &sizes).size(), 2u);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1}));
}

TEST(VectorSourceTest, EmptyVectorYieldsOneDayBoundaryMarker) {
  const std::vector<logs::ConnEvent> empty;
  VectorSource source(1, &empty);
  const auto marker = source.next_chunk();
  ASSERT_TRUE(marker.has_value());
  EXPECT_EQ(marker->day, 1);
  EXPECT_TRUE(marker->events.empty());
  EXPECT_FALSE(source.next_chunk().has_value());
  EXPECT_TRUE(source.reset());
  EXPECT_TRUE(source.next_chunk().has_value());
}

// ---- TsvFileSource ----

class TsvFileSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-api-sources-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(TsvFileSourceTest, ProxyFileStreamsReducedEventsAndCountsMalformed) {
  std::vector<logs::ProxyRecord> records;
  for (int i = 0; i < 5; ++i) {
    logs::ProxyRecord rec;
    rec.ts = 1000 + i;
    rec.collector = "c0";
    rec.src_ip = "10.0.0." + std::to_string(i + 1);
    rec.hostname = "host" + std::to_string(i);
    rec.domain = "site" + std::to_string(i) + ".example.com";
    rec.user_agent = "UA";
    records.push_back(rec);
  }
  const auto path = dir_ / "proxy.tsv";
  ASSERT_TRUE(logs::write_proxy_file(path, records));
  {
    std::ofstream corrupt(path, std::ios::app);
    corrupt << "garbage line without tabs\n";
    corrupt << "123\tonly\tthree\n";
  }

  const logs::DhcpTable leases;
  const logs::ProxyReductionConfig reduction;
  const auto batch = logs::reduce_proxy(records, leases, reduction);
  ASSERT_FALSE(batch.empty());

  TsvFileSource source(path, 99, leases, reduction, 2);
  std::vector<util::Day> days;
  const auto streamed = drain(source, nullptr, &days);

  EXPECT_TRUE(source.stats().opened);
  EXPECT_EQ(source.stats().parsed, records.size());
  EXPECT_EQ(source.stats().malformed, 2u);
  EXPECT_EQ(source.stats().events, streamed.size());
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(same_event(batch[i], streamed[i])) << i;
  }
  for (const util::Day day : days) EXPECT_EQ(day, 99);

  // reset() rewinds and clears the accounting.
  EXPECT_TRUE(source.reset());
  EXPECT_EQ(source.stats().malformed, 0u);
  EXPECT_EQ(drain(source).size(), batch.size());
  EXPECT_EQ(source.stats().malformed, 2u);
}

TEST_F(TsvFileSourceTest, DnsFileStreamsReducedEvents) {
  std::vector<logs::DnsRecord> records;
  for (int i = 0; i < 4; ++i) {
    logs::DnsRecord rec;
    rec.ts = 2000 + i;
    rec.src = "h" + std::to_string(i);
    rec.domain = "q" + std::to_string(i) + ".example.net";
    rec.type = logs::DnsType::A;
    records.push_back(rec);
  }
  records[3].type = logs::DnsType::TXT;  // dropped by reduction, not malformed
  const auto path = dir_ / "dns.tsv";
  ASSERT_TRUE(logs::write_dns_file(path, records));

  logs::DnsReductionConfig reduction;
  const auto batch = logs::reduce_dns(records, reduction);
  TsvFileSource source(path, 5, reduction, 3);
  const auto streamed = drain(source);
  EXPECT_EQ(source.stats().parsed, records.size());
  EXPECT_EQ(source.stats().malformed, 0u);
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(same_event(batch[i], streamed[i])) << i;
  }
}

TEST_F(TsvFileSourceTest, MissingFileReportsUnopened) {
  const logs::DhcpTable leases;
  TsvFileSource source(dir_ / "missing.tsv", 1, leases,
                       logs::ProxyReductionConfig{});
  EXPECT_FALSE(source.stats().opened);
  EXPECT_FALSE(source.next_chunk().has_value());
}

// ---- TsvFileSource tail mode (--follow) ----

namespace {

logs::DnsRecord dns_record(util::TimePoint ts, int i) {
  logs::DnsRecord rec;
  rec.ts = ts;
  rec.src = "h" + std::to_string(i);
  rec.domain = "tail" + std::to_string(i) + ".example.net";
  rec.type = logs::DnsType::A;
  return rec;
}

}  // namespace

TEST_F(TsvFileSourceTest, TailResumesAtByteOffsetAndSkipsPartialLines) {
  const auto path = dir_ / "dns-tail.tsv";
  ASSERT_TRUE(logs::write_dns_file(path, {dns_record(100, 0), dns_record(101, 1)}));

  TsvFileSource source(path, 7, logs::DnsReductionConfig{});
  source.set_tail(true);

  // First poll drains the two complete lines; the cursor lands at the end.
  EXPECT_EQ(drain(source).size(), 2u);
  const std::uint64_t after_two =
      static_cast<std::uint64_t>(std::filesystem::file_size(path));
  EXPECT_EQ(source.stats().byte_offset, after_two);

  // A partially written line (no newline yet) is invisible: not an event,
  // not malformed, cursor unmoved.
  const std::string third = logs::format_dns_line(dns_record(102, 2));
  {
    std::ofstream out(path, std::ios::app);
    out << third.substr(0, third.size() / 2);
  }
  EXPECT_FALSE(source.next_chunk().has_value());
  EXPECT_EQ(source.stats().malformed, 0u);
  EXPECT_EQ(source.stats().byte_offset, after_two);

  // Once its newline lands the whole line is re-read from the cursor.
  {
    std::ofstream out(path, std::ios::app);
    out << third.substr(third.size() / 2) << '\n';
  }
  const auto chunk = source.next_chunk();
  ASSERT_TRUE(chunk.has_value());
  ASSERT_EQ(chunk->events.size(), 1u);
  EXPECT_EQ(chunk->events[0].domain, "tail2.example.net");
  EXPECT_EQ(chunk->events[0].ts, 102);
  EXPECT_EQ(source.stats().byte_offset, after_two + third.size() + 1);
  EXPECT_FALSE(source.next_chunk().has_value());

  // Garbage appended mid-tail is counted malformed, never fatal; the
  // complete line after it still comes through the same poll.
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage without enough tabs\n"
        << logs::format_dns_line(dns_record(103, 3)) << '\n';
  }
  const auto after_garbage = source.next_chunk();
  ASSERT_TRUE(after_garbage.has_value());
  ASSERT_EQ(after_garbage->events.size(), 1u);
  EXPECT_EQ(after_garbage->events[0].ts, 103);
  EXPECT_EQ(source.stats().malformed, 1u);
  EXPECT_EQ(source.stats().byte_offset,
            static_cast<std::uint64_t>(std::filesystem::file_size(path)));
}

TEST_F(TsvFileSourceTest, TailRetriesAFileThatAppearsLater) {
  const auto path = dir_ / "late.tsv";
  TsvFileSource source(path, 7, logs::DnsReductionConfig{});
  source.set_tail(true);
  EXPECT_FALSE(source.stats().opened);
  EXPECT_FALSE(source.next_chunk().has_value());  // nothing yet, not an error

  ASSERT_TRUE(logs::write_dns_file(path, {dns_record(200, 0)}));
  const auto chunk = source.next_chunk();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->events.size(), 1u);
  EXPECT_TRUE(source.stats().opened);
}

TEST_F(TsvFileSourceTest, TailSuppressesEmptyDayMarker) {
  // A tail has no notion of "the day produced nothing" — the stream never
  // ends, so the empty-day boundary marker must not fire.
  const auto path = dir_ / "empty.tsv";
  { std::ofstream out(path); }
  TsvFileSource source(path, 7, logs::DnsReductionConfig{});
  source.set_tail(true);
  EXPECT_FALSE(source.next_chunk().has_value());
  EXPECT_FALSE(source.next_chunk().has_value());

  // Batch mode on the same empty file does announce the day once.
  TsvFileSource batch(path, 7, logs::DnsReductionConfig{});
  const auto marker = batch.next_chunk();
  ASSERT_TRUE(marker.has_value());
  EXPECT_TRUE(marker->events.empty());
  EXPECT_FALSE(batch.next_chunk().has_value());
}

// ---- TsvFileSource vs parse_*_line + reduce_* ----
//
// The fused source (lines tokenized in place and reduced straight into
// reused slots) must hand out, chunk for chunk, what the owning path
// produces: parse_*_line on every non-empty line, the parsed records cut
// into runs of `chunk_records`, reduce_* over each run, runs that reduce to
// nothing skipped. Stats must agree too.

namespace {

struct OwningPath {
  std::vector<std::vector<logs::ConnEvent>> chunks;
  std::size_t lines = 0;
  std::size_t parsed = 0;
  std::size_t malformed = 0;
  std::size_t events = 0;
};

template <typename Record, typename Parse, typename Reduce>
OwningPath owning_path(std::string_view text, std::size_t chunk_records,
                       Parse parse, Reduce reduce) {
  OwningPath out;
  std::vector<Record> run;
  const auto flush = [&] {
    if (run.empty()) return;
    std::vector<logs::ConnEvent> events = reduce(std::span<const Record>(run));
    run.clear();
    out.events += events.size();
    if (!events.empty()) out.chunks.push_back(std::move(events));
  };
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++out.lines;
    if (std::optional<Record> rec = parse(line)) {
      run.push_back(std::move(*rec));
      ++out.parsed;
      if (run.size() == chunk_records) flush();
    } else {
      ++out.malformed;
    }
  }
  flush();
  return out;
}

std::vector<std::vector<logs::ConnEvent>> chunks_of(TsvFileSource& source) {
  std::vector<std::vector<logs::ConnEvent>> out;
  while (auto chunk = source.next_chunk()) {
    out.emplace_back(chunk->events.begin(), chunk->events.end());
  }
  return out;
}

void expect_same_chunks(const std::vector<std::vector<logs::ConnEvent>>& actual,
                        const std::vector<std::vector<logs::ConnEvent>>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(actual[c].size(), expected[c].size()) << "chunk " << c;
    for (std::size_t i = 0; i < expected[c].size(); ++i) {
      EXPECT_TRUE(same_event(actual[c][i], expected[c][i]))
          << "chunk " << c << " event " << i;
    }
  }
}

void expect_stats(const TsvFileSource::Stats& stats, const OwningPath& expected) {
  EXPECT_EQ(stats.lines, expected.lines);
  EXPECT_EQ(stats.parsed, expected.parsed);
  EXPECT_EQ(stats.malformed, expected.malformed);
  EXPECT_EQ(stats.events, expected.events);
}

/// A day of proxy lines covering every reduction branch: out-of-order
/// timestamps, collectors with, without and with a duplicated UTC offset,
/// DHCP-resolved, unresolved and named sources, IP-literal, "-" and
/// uppercase domains, blank and malformed lines. The last line is torn:
/// `torn_tail` is what the file holds of it, without a newline, and
/// `torn_rest` the rest of it, newline included.
std::string proxy_corpus(std::string* torn_tail, std::string* torn_rest) {
  util::Rng rng(0x7f11e);
  constexpr std::array<const char*, 4> kCollectors = {"px-eu", "px-us", "px-ap", ""};
  constexpr std::array<const char*, 8> kDomains = {
      "News.BBC.CO.UK", "www.example.com", "10.9.8.7", "",
      "x..com",         "CDN.Shop.com.au", "a.b.c.evil.ru", "WWW.EXAMPLE.COM"};
  std::string text;
  for (int i = 0; i < 400; ++i) {
    logs::ProxyRecord rec;
    rec.ts = rng.uniform_int(0, 20000);
    rec.collector = kCollectors[rng.index(kCollectors.size())];
    rec.src_ip = "10.0.0." + std::to_string(1 + rng.index(8));
    if (rng.chance(0.2)) rec.hostname = "WS-Named.Corp";
    rec.domain = kDomains[rng.index(kDomains.size())];
    if (rng.chance(0.5)) rec.dest_ip = util::Ipv4::from_octets(93, 184, 216, 34);
    rec.url_path = "/p" + std::to_string(i);
    rec.user_agent = rng.chance(0.7) ? "Mozilla/5.0" : "";
    rec.referer = rng.chance(0.5) ? "start.example.com" : "";
    text += logs::format_proxy_line(rec) + '\n';
    if (i % 37 == 0) text += "garbage line without tabs\n";
    if (i % 53 == 0) text += '\n';
  }
  logs::ProxyRecord last;
  last.ts = 42;
  last.src_ip = "10.0.0.2";
  last.domain = "torn.example.org";
  last.user_agent = "Mozilla/5.0";
  const std::string line = logs::format_proxy_line(last);
  *torn_tail = line.substr(0, line.size() - 3);  // mid-UA: a malformed line
  *torn_rest = line.substr(line.size() - 3) + '\n';
  return text + *torn_tail;
}

logs::DhcpTable proxy_leases() {
  logs::DhcpTable leases;
  for (int i = 2; i <= 8; i += 2) {
    leases.add_lease({"10.0.0." + std::to_string(i), -100000, 8000,
                      "ws-" + std::to_string(i) + ".corp"});
  }
  leases.add_lease({"10.0.0.2", 12000, 30000, "ws-2b.corp"});  // after a gap
  return leases;
}

logs::ProxyReductionConfig proxy_config(bool keep_unresolved) {
  logs::ProxyReductionConfig config;
  config.collector_utc_offsets = {{"px-eu", 3600}, {"px-us", -18000}, {"px-eu", 7200}};
  config.keep_unresolved_sources = keep_unresolved;
  return config;
}

std::string dns_corpus() {
  util::Rng rng(0xd115);
  constexpr std::array<const char*, 6> kDomains = {
      "Mail.CORP.internal", "www.example.com", "News.BBC.CO.UK",
      "x..com",             "a.b.c.d.evil.ru",  "single"};
  constexpr std::array<const char*, 3> kSources = {"C17", "dns-relay", "10.1.1.1"};
  std::string text;
  for (int i = 0; i < 300; ++i) {
    logs::DnsRecord rec;
    rec.ts = rng.uniform_int(0, 20000);
    rec.src = kSources[rng.index(kSources.size())];
    rec.domain = kDomains[rng.index(kDomains.size())];
    rec.type = rng.chance(0.7) ? logs::DnsType::A : logs::DnsType::AAAA;
    if (rng.chance(0.5)) rec.response_ip = util::Ipv4::from_octets(1, 2, 3, 4);
    text += logs::format_dns_line(rec) + '\n';
    if (i % 41 == 0) text += "1\tC1\tbad.ip.com\tA\t300.1.1.1\n";
  }
  return text + "7\tC1\ttorn.example";  // torn: three of five fields
}

logs::DnsReductionConfig dns_config() {
  logs::DnsReductionConfig config;
  config.internal_suffixes = {"corp.internal"};
  config.internal_servers = {"dns-relay"};
  return config;
}

}  // namespace

TEST_F(TsvFileSourceTest, ProxyChunksMatchTheOwningPath) {
  std::string torn;
  std::string rest;
  const std::string text = proxy_corpus(&torn, &rest);
  const auto path = dir_ / "proxy-diff.tsv";
  { std::ofstream(path, std::ios::binary) << text; }
  const logs::DhcpTable leases = proxy_leases();

  // The corpus reaches every branch it is meant to.
  std::vector<logs::ProxyRecord> all;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (auto rec = logs::parse_proxy_line(line)) all.push_back(std::move(*rec));
  }
  logs::ProxyReductionStats branch;
  logs::reduce_proxy(all, leases, proxy_config(true), &branch);
  EXPECT_GT(branch.ip_literal_destinations, 0u);
  EXPECT_GT(branch.resolved_sources, 0u);
  EXPECT_GT(branch.unresolved_sources, 0u);

  for (const bool keep_unresolved : {true, false}) {
    const logs::ProxyReductionConfig config = proxy_config(keep_unresolved);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + " keep_unresolved " +
                   std::to_string(keep_unresolved));
      const OwningPath expected = owning_path<logs::ProxyRecord>(
          text, chunk, logs::parse_proxy_line,
          [&](std::span<const logs::ProxyRecord> records) {
            return logs::reduce_proxy(records, leases, config);
          });
      TsvFileSource source(path, 3, leases, config, chunk);
      expect_same_chunks(chunks_of(source), expected.chunks);
      expect_stats(source.stats(), expected);
      EXPECT_EQ(source.stats().malformed, 12u);  // 11 garbage + the torn tail
      EXPECT_EQ(source.stats().byte_offset, text.size());
      EXPECT_EQ(source.stats().partial_line_bytes, 0u);
    }
  }
}

TEST_F(TsvFileSourceTest, DnsChunksMatchTheOwningPath) {
  const std::string text = dns_corpus();
  const auto path = dir_ / "dns-diff.tsv";
  { std::ofstream(path, std::ios::binary) << text; }
  const logs::DnsReductionConfig config = dns_config();
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    const OwningPath expected = owning_path<logs::DnsRecord>(
        text, chunk, logs::parse_dns_line,
        [&](std::span<const logs::DnsRecord> records) {
          return logs::reduce_dns(records, config);
        });
    TsvFileSource source(path, 3, config, chunk);
    expect_same_chunks(chunks_of(source), expected.chunks);
    expect_stats(source.stats(), expected);
    EXPECT_EQ(source.stats().malformed, 9u);  // 8 bad response ips + the torn tail
    EXPECT_EQ(source.stats().byte_offset, text.size());
  }
}

TEST_F(TsvFileSourceTest, TailChunksMatchTheOwningPathAroundATornLine) {
  std::string torn;
  std::string rest;
  const std::string text = proxy_corpus(&torn, &rest);
  const std::string complete = text.substr(0, text.size() - torn.size());
  const auto path = dir_ / "proxy-tail-diff.tsv";
  { std::ofstream(path, std::ios::binary) << text; }
  const logs::DhcpTable leases = proxy_leases();
  const logs::ProxyReductionConfig config = proxy_config(true);
  const auto reduce = [&](std::span<const logs::ProxyRecord> records) {
    return logs::reduce_proxy(records, leases, config);
  };

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    { std::ofstream(path, std::ios::binary | std::ios::trunc) << text; }
    TsvFileSource source(path, 3, leases, config, chunk);
    source.set_tail(true);
    // The torn last line is left alone: neither parsed nor malformed.
    const OwningPath before = owning_path<logs::ProxyRecord>(
        complete, chunk, logs::parse_proxy_line, reduce);
    expect_same_chunks(chunks_of(source), before.chunks);
    expect_stats(source.stats(), before);
    EXPECT_EQ(source.stats().byte_offset, complete.size());
    EXPECT_EQ(source.stats().partial_line_bytes, torn.size());

    // Its remainder lands: the whole line is read again and reduced alone.
    { std::ofstream(path, std::ios::binary | std::ios::app) << rest; }
    const OwningPath after = owning_path<logs::ProxyRecord>(
        torn + rest, chunk, logs::parse_proxy_line, reduce);
    ASSERT_EQ(after.parsed, 1u);
    expect_same_chunks(chunks_of(source), after.chunks);
    EXPECT_EQ(source.stats().parsed, before.parsed + 1);
    EXPECT_EQ(source.stats().malformed, before.malformed);
    EXPECT_EQ(source.stats().events, before.events + after.events);
    EXPECT_EQ(source.stats().byte_offset, text.size() + rest.size());
    EXPECT_EQ(source.stats().partial_line_bytes, 0u);
  }
}

/// Over two blocks of proxy lines for the reader: block boundaries fall
/// mid-line, one malformed line is longer than a block, and the last line
/// (valid) has no trailing newline. Destinations mix case and IP literals;
/// sources are named, leased (proxy_leases) or unresolved; a few lines are
/// empty.
std::string block_corpus() {
  util::Rng rng(0xb10c);
  constexpr std::array<const char*, 9> kDomains = {
      "News.BBC.CO.UK", "www.Example.com",  "10.9.8.7",
      "",               "CDN.Shop.com.au",  "a.b.c.evil.ru",
      "192.168.0.1",    "WWW.EXAMPLE.COM",  "mail.example.COM"};
  constexpr std::array<const char*, 3> kCollectors = {"px-eu", "px-us", ""};
  const auto line = [&](int i) {
    logs::ProxyRecord rec;
    rec.ts = rng.uniform_int(-1000, 40000);
    rec.collector = kCollectors[rng.index(kCollectors.size())];
    rec.src_ip = "10.0.0." + std::to_string(1 + rng.index(12));
    if (rng.chance(0.1)) rec.hostname = "WS-Named.Corp";
    rec.domain = kDomains[rng.index(kDomains.size())];
    if (rng.chance(0.5)) rec.dest_ip = util::Ipv4::from_octets(93, 184, 216, 34);
    rec.url_path = "/p" + std::to_string(i);
    rec.user_agent = rng.chance(0.7) ? "Mozilla/5.0 (X11; Linux x86_64)" : "";
    rec.referer = rng.chance(0.5) ? "start.example.com" : "";
    return logs::format_proxy_line(rec);
  };
  std::string text;
  int i = 0;
  while (text.size() < TsvFileSource::kBlockBytes / 2) text += line(i++) + '\n';
  text += std::string(TsvFileSource::kBlockBytes + 100, 'x') + '\n';
  while (text.size() < 2 * TsvFileSource::kBlockBytes + 300000) {
    text += line(i++) + '\n';
    if (i % 211 == 0) text += '\n';
  }
  return text + line(i);
}

TEST_F(TsvFileSourceTest, BlockReaderMatchesTheOwningPathOverBlockBoundaries) {
  const std::string text = block_corpus();
  // The giant line holds the first boundary; a regular line the second.
  ASSERT_GT(text.size(), 2 * TsvFileSource::kBlockBytes);
  ASSERT_NE(text[2 * TsvFileSource::kBlockBytes - 1], '\n');
  ASSERT_NE(text.back(), '\n');
  const auto path = dir_ / "proxy-blocks.tsv";
  { std::ofstream(path, std::ios::binary) << text; }
  const logs::DhcpTable leases = proxy_leases();
  const logs::ProxyReductionConfig config = proxy_config(true);
  const auto reduce = [&](std::span<const logs::ProxyRecord> records) {
    return logs::reduce_proxy(records, leases, config);
  };

  for (const std::size_t chunk : {std::size_t{1000}, std::size_t{4096}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    const OwningPath expected =
        owning_path<logs::ProxyRecord>(text, chunk, logs::parse_proxy_line, reduce);
    TsvFileSource source(path, 3, leases, config, chunk);
    expect_same_chunks(chunks_of(source), expected.chunks);
    expect_stats(source.stats(), expected);
    EXPECT_EQ(source.stats().malformed, 1u);  // the giant line
    EXPECT_EQ(source.stats().byte_offset, text.size());
  }

  // Tail mode leaves the unterminated last line until its newline lands.
  const std::size_t last = text.rfind('\n') + 1;
  const std::string complete = text.substr(0, last);
  const std::string partial = text.substr(last);
  TsvFileSource tail(path, 3, leases, config);
  tail.set_tail(true);
  const OwningPath before = owning_path<logs::ProxyRecord>(
      complete, kDefaultChunkEvents, logs::parse_proxy_line, reduce);
  expect_same_chunks(chunks_of(tail), before.chunks);
  expect_stats(tail.stats(), before);
  EXPECT_EQ(tail.stats().byte_offset, complete.size());
  EXPECT_EQ(tail.stats().partial_line_bytes, partial.size());
  { std::ofstream(path, std::ios::binary | std::ios::app) << '\n'; }
  const OwningPath after = owning_path<logs::ProxyRecord>(
      partial, kDefaultChunkEvents, logs::parse_proxy_line, reduce);
  ASSERT_EQ(after.parsed, 1u);
  expect_same_chunks(chunks_of(tail), after.chunks);
  EXPECT_EQ(tail.stats().parsed, before.parsed + 1);
  EXPECT_EQ(tail.stats().byte_offset, text.size() + 1);
  EXPECT_EQ(tail.stats().partial_line_bytes, 0u);
}

// ---- SimSource ----

TEST(SimSourceTest, MatchesReducedDayAcrossTheRange) {
  sim::SimConfig config;
  config.flavor = sim::Flavor::Proxy;
  config.seed = 5;
  config.day0 = util::make_day(2014, 1, 1);
  config.n_hosts = 30;
  config.n_popular = 10;
  config.tail_per_day = 5;
  config.automated_tail_per_day = 1;
  config.grayware_per_day = 1;

  const util::Day first = config.day0;
  const util::Day last = first + 2;

  // Two identical simulators: one consumed through the source, one as the
  // batch ground truth (simulators are deterministic in the seed).
  sim::EnterpriseSimulator streamed_sim(config, {});
  sim::EnterpriseSimulator batch_sim(config, {});

  SimSource source(streamed_sim, first, last, 100);
  std::vector<util::Day> days;
  std::vector<logs::ConnEvent> streamed;
  std::vector<std::size_t> day_counts;
  {
    std::vector<std::size_t> sizes;
    streamed = drain(source, &sizes, &days);
    for (const std::size_t size : sizes) EXPECT_LE(size, 100u);
  }

  std::vector<logs::ConnEvent> batch;
  for (util::Day day = first; day <= last; ++day) {
    const auto day_events = batch_sim.reduced_day(day);
    day_counts.push_back(day_events.size());
    batch.insert(batch.end(), day_events.begin(), day_events.end());
  }
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(same_event(batch[i], streamed[i])) << i;
  }

  // Day tags must be contiguous and non-decreasing across the range.
  for (std::size_t i = 1; i < days.size(); ++i) {
    EXPECT_GE(days[i], days[i - 1]);
  }
  EXPECT_EQ(days.front(), first);
  EXPECT_EQ(days.back(), last);

  // Forward-only: no rewind.
  EXPECT_FALSE(source.reset());
}

// ---- NetflowSource ----

TEST(NetflowSourceTest, MatchesBatchFlowReductionAndAggregatesStats) {
  logs::PassiveDnsCache pdns;
  const auto ip = [](int last) {
    return util::Ipv4::from_octets(203, 0, 113, static_cast<std::uint8_t>(last));
  };
  pdns.observe("alpha.example.com", ip(10), 100);
  pdns.observe("beta.example.com", ip(20), 100);

  std::vector<logs::FlowRecord> flows;
  for (int i = 0; i < 6; ++i) {
    logs::FlowRecord flow;
    flow.ts = 200 + i;
    flow.src = "h" + std::to_string(i % 2);
    flow.dst_ip = i % 2 == 0 ? ip(10) : ip(20);
    flow.dst_port = 443;
    flows.push_back(flow);
  }
  flows[5].dst_port = 25;  // filtered: not a web port
  logs::FlowRecord orphan;  // unattributed: IP never seen in passive DNS
  orphan.ts = 300;
  orphan.src = "h9";
  orphan.dst_ip = ip(99);
  orphan.dst_port = 80;
  flows.push_back(orphan);

  const logs::FlowReductionConfig reduction;
  logs::FlowReductionStats batch_stats;
  const auto batch = logs::reduce_flows(flows, pdns, reduction, &batch_stats);
  ASSERT_FALSE(batch.empty());

  NetflowSource source(17, flows, pdns, reduction, 2);
  std::vector<util::Day> days;
  const auto streamed = drain(source, nullptr, &days);

  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(same_event(batch[i], streamed[i])) << i;
  }
  for (const util::Day day : days) EXPECT_EQ(day, 17);
  EXPECT_EQ(source.stats().total_flows, batch_stats.total_flows);
  EXPECT_EQ(source.stats().port_filtered, batch_stats.port_filtered);
  EXPECT_EQ(source.stats().unattributed, batch_stats.unattributed);
  EXPECT_EQ(source.stats().kept, batch_stats.kept);

  EXPECT_TRUE(source.reset());
  EXPECT_EQ(source.stats().kept, 0u);
  EXPECT_EQ(drain(source).size(), batch.size());
}

}  // namespace
}  // namespace eid::api
