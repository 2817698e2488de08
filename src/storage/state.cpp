#include "storage/state.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "features/cc_features.h"
#include "features/similarity_features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/encoding.h"
#include "util/binary.h"
#include "util/crc32.h"

// The encoding primitives live in storage::detail (declared in
// storage/encoding.h) so the delta-chain encoder (storage/delta.cpp)
// assembles frames from the exact same codecs the full checkpoint uses.
namespace eid::storage {
namespace detail {
namespace {

// Front-coding restarts every this many table entries (FORMAT.md §1).
constexpr std::size_t kFrontCodeBlock = 1024;

}  // namespace

StringTable sorted_unique(std::vector<std::string_view> strings) {
  std::sort(strings.begin(), strings.end());
  strings.erase(std::unique(strings.begin(), strings.end()), strings.end());
  return strings;
}

std::size_t common_prefix(std::string_view a, std::string_view b) {
  const std::size_t cap = std::min(a.size(), b.size());
  std::size_t n = 0;
  while (n < cap && a[n] == b[n]) ++n;
  return n;
}

std::size_t varint_size(std::uint64_t value) {
  std::size_t n = 1;
  for (; value >= 0x80; value >>= 7) ++n;
  return n;
}

/// Section 1: count, then per string (sorted ascending) the byte count
/// shared with the previous entry, the suffix length, and the suffix.
/// Every kFrontCodeBlock-th entry stores a zero prefix, so blocks decode
/// independently. The output is sized exactly before it is written: the
/// table is the largest section, and a worst-case reservation would hold
/// several times its size for the rest of the encode.
std::string encode_string_table(const StringTable& table) {
  const auto prefix_of = [&table](std::size_t i) {
    return i % kFrontCodeBlock == 0 ? 0 : common_prefix(table[i - 1], table[i]);
  };
  std::size_t size = varint_size(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::size_t prefix = prefix_of(i);
    const std::size_t suffix = table[i].size() - prefix;
    size += varint_size(prefix) + varint_size(suffix) + suffix;
  }
  util::ByteWriter out;
  out.reserve(size);
  out.varint(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::size_t prefix = prefix_of(i);
    out.varint(prefix);
    out.varint(table[i].size() - prefix);
    out.bytes(table[i].substr(prefix));
  }
  return out.take();
}

bool decode_string_table(std::string_view payload, DecodedTable& table,
                         LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t count = 0;
  if (!in.varint(count)) {
    set_status(status, LoadError::Truncated, "string table: count cut short");
    return false;
  }
  // Every entry costs at least two bytes (two varints), so a corrupt count
  // cannot force a huge allocation.
  if (count > payload.size()) {
    set_status(status, LoadError::Malformed,
               "string table: count exceeds payload size");
    return false;
  }
  table.arena.clear();
  table.arena.reserve(payload.size() * 2);
  table.spans.clear();
  table.spans.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t prefix = 0;
    std::string_view suffix;
    if (!in.varint(prefix) || !in.str(suffix)) {
      set_status(status, LoadError::Truncated,
                 "string table: entry " + std::to_string(i) + " cut short");
      return false;
    }
    const std::size_t prev_size =
        table.spans.empty() ? 0 : table.spans.back().second;
    if (prefix > prev_size) {
      set_status(status, LoadError::Malformed,
                 "string table: entry " + std::to_string(i) +
                     " shares more bytes than the previous entry has");
      return false;
    }
    const std::size_t length = static_cast<std::size_t>(prefix) + suffix.size();
    if (table.arena.size() + length > (1ull << 31)) {
      set_status(status, LoadError::Malformed, "string table: over 2 GiB");
      return false;
    }
    const std::size_t offset = table.arena.size();
    // Grow capacity up front so the self-append below never reallocates
    // mid-copy (the source range lives in the same buffer).
    if (table.arena.capacity() < offset + length) {
      table.arena.reserve(std::max(offset + length, table.arena.capacity() * 2));
    }
    if (prefix > 0) {
      table.arena.append(table.arena, table.spans.back().first,
                         static_cast<std::size_t>(prefix));
    }
    table.arena.append(suffix);
    table.spans.emplace_back(static_cast<std::uint32_t>(offset),
                             static_cast<std::uint32_t>(length));
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "string table: trailing bytes after the last entry");
    return false;
  }
  return true;
}

/// Ascending id sequence as first-id + deltas (sorted sets reference the
/// sorted table, so deltas are small).
void encode_id_run(util::ByteWriter& out, const std::vector<std::uint64_t>& ids) {
  std::uint64_t prev = 0;
  for (const std::uint64_t id : ids) {
    out.varint(id - prev);
    prev = id;
  }
}

bool decode_id_run(util::ByteReader& in, std::uint64_t count,
                   std::uint64_t table_size, std::vector<std::uint64_t>& out) {
  // Every delta costs at least one byte, so a corrupt count cannot force a
  // huge allocation.
  if (count > in.remaining()) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!in.varint(delta)) return false;
    // Writers emit sorted unique ids, so every delta after the first is
    // strictly positive; a zero delta would smuggle duplicates past the
    // containers' duplicate-free restore preconditions.
    if (i > 0 && delta == 0) return false;
    prev += delta;
    if (prev >= table_size) return false;
    out.push_back(prev);
  }
  return true;
}

/// Table ids of `strings`, ascending and unique. Sorting the integer ids
/// gives the same order the old sort-strings-then-look-up did (ids are
/// assigned in table sort order) without any string comparisons. A string
/// listed twice yields one id: decode_id_run rejects a repeated id, so a
/// set a writer encodes must not carry one. Callers write the returned
/// size as the set's count.
std::vector<std::uint64_t> sorted_ids(const TableIndex& index,
                                      const std::vector<std::string_view>& strings) {
  std::vector<std::uint64_t> ids;
  ids.reserve(strings.size());
  for (const std::string_view text : strings) {
    ids.push_back(index.id(text));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// ---- Domain history ----

std::vector<std::string_view> domain_views(
    const profile::DomainHistory& history) {
  std::vector<std::string_view> views;
  views.reserve(history.size());
  for (const std::string& domain : history.domains()) views.push_back(domain);
  return views;
}

std::string encode_domain_history_section(const profile::DomainHistory& history,
                                          const TableIndex& index) {
  util::ByteWriter out;
  out.reserve(history.size() * 3 + 20);
  out.varint(history.days_ingested());
  const std::vector<std::uint64_t> ids =
      sorted_ids(index, domain_views(history));
  out.varint(ids.size());
  encode_id_run(out, ids);
  return out.take();
}

bool decode_domain_history_section(std::string_view payload,
                                   const DecodedTable& table,
                                   profile::DomainHistory& history,
                                   LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t days = 0;
  std::uint64_t count = 0;
  if (!in.varint(days) || !in.varint(count)) {
    set_status(status, LoadError::Truncated, "domain history: header cut short");
    return false;
  }
  std::vector<std::uint64_t> ids;
  if (!decode_id_run(in, count, table.size(), ids) || !in.at_end()) {
    set_status(status, LoadError::Malformed,
               "domain history: bad domain id sequence");
    return false;
  }
  profile::DomainHistory::DomainSet domains;
  domains.reserve(ids.size());
  for (const std::uint64_t id : ids) domains.emplace(table.view(id));
  history.restore(std::move(domains), static_cast<std::size_t>(days));
  return true;
}

// ---- UA history ----

struct UaEntryIds {
  std::uint64_t ua_id = 0;  ///< table id; id order == UA string order
  std::uint32_t hosts_begin = 0;  ///< range into a shared flat id array
  std::uint32_t hosts_count = 0;
  bool popular = false;
};

std::vector<std::string_view> ua_views(const profile::UaHistory& history) {
  std::vector<std::string_view> views;
  std::vector<bool> seen(history.distinct_hosts(), false);
  history.for_each_entry_ids([&](const std::string& ua, bool,
                                 std::span<const util::InternId> host_ids) {
    views.push_back(ua);
    for (const util::InternId id : host_ids) {
      if (!seen[id]) {
        seen[id] = true;
        views.push_back(history.host_name(id));
      }
    }
  });
  return views;
}

std::string encode_ua_history_section(const profile::UaHistory& history,
                                      const TableIndex& index) {
  // Resolve each distinct host to its table id once (lazily), not per
  // entry — hosts repeat across thousands of entries. Per-entry host id
  // lists live in one flat array (entries only hold ranges), so the whole
  // encode performs O(1) heap allocations, not one per UA.
  constexpr std::uint64_t kUnresolved = ~std::uint64_t{0};
  std::vector<std::uint64_t> host_table(history.distinct_hosts(), kUnresolved);
  std::vector<UaEntryIds> entries;
  std::vector<std::uint64_t> flat_host_ids;
  entries.reserve(history.distinct_uas());
  flat_host_ids.reserve(history.distinct_uas() * 4);
  history.for_each_entry_ids([&](const std::string& ua, bool popular,
                                 std::span<const util::InternId> host_ids) {
    UaEntryIds entry;
    entry.ua_id = index.id(ua);
    entry.popular = popular;
    entry.hosts_begin = static_cast<std::uint32_t>(flat_host_ids.size());
    for (const util::InternId id : host_ids) {
      if (host_table[id] == kUnresolved) {
        host_table[id] = index.id(history.host_name(id));
      }
      flat_host_ids.push_back(host_table[id]);
    }
    entry.hosts_count =
        static_cast<std::uint32_t>(flat_host_ids.size()) - entry.hosts_begin;
    std::sort(flat_host_ids.begin() + entry.hosts_begin, flat_host_ids.end());
    entries.push_back(entry);
  });
  // Table ids sort exactly like the strings they name.
  std::sort(entries.begin(), entries.end(),
            [](const UaEntryIds& a, const UaEntryIds& b) {
              return a.ua_id < b.ua_id;
            });

  util::ByteWriter out;
  out.reserve(entries.size() * 8 + flat_host_ids.size() * 4 + 20);
  out.varint(history.rare_threshold());
  out.varint(entries.size());
  for (const UaEntryIds& entry : entries) {
    out.varint(entry.ua_id);
    out.u8(entry.popular ? 1 : 0);
    if (entry.popular) continue;  // host set dropped once popular
    out.varint(entry.hosts_count);
    std::uint64_t prev = 0;
    for (std::uint32_t i = 0; i < entry.hosts_count; ++i) {
      const std::uint64_t id = flat_host_ids[entry.hosts_begin + i];
      out.varint(id - prev);
      prev = id;
    }
  }
  return out.take();
}

bool decode_ua_history_section(std::string_view payload,
                               const DecodedTable& table,
                               std::optional<profile::UaHistory>& history,
                               LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t threshold = 0;
  std::uint64_t count = 0;
  if (!in.varint(threshold) || !in.varint(count)) {
    set_status(status, LoadError::Truncated, "ua history: header cut short");
    return false;
  }
  if (threshold == 0) {
    set_status(status, LoadError::Malformed, "ua history: zero rare threshold");
    return false;
  }
  history.emplace(static_cast<std::size_t>(threshold));
  history->reserve_uas(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, in.remaining())));
  // Lazy table-id -> intern-id map: each distinct host name is registered
  // (hashed) exactly once, no matter how many entries reference it.
  std::vector<util::InternId> host_intern(table.size(), util::kInvalidInternId);
  std::vector<std::uint64_t> host_ids;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bad = [&](const char* what) {
      set_status(status, LoadError::Malformed,
                 "ua history: entry " + std::to_string(i) + ": " + what);
      return false;
    };
    std::uint64_t ua_id = 0;
    std::uint8_t flags = 0;
    if (!in.varint(ua_id) || !in.u8(flags)) return bad("cut short");
    if (ua_id >= table.size()) return bad("ua id out of range");
    if (flags > 1) return bad("unknown flags");
    std::vector<util::InternId> interned;
    if (flags == 0) {
      std::uint64_t n_hosts = 0;
      if (!in.varint(n_hosts)) return bad("host count cut short");
      // A rare entry always holds fewer hosts than the threshold (observe()
      // flips it to popular at the threshold and drops the set).
      if (n_hosts >= threshold) {
        return bad("rare entry at or above the popularity threshold");
      }
      if (!decode_id_run(in, n_hosts, table.size(), host_ids)) {
        return bad("bad host id sequence");
      }
      interned.reserve(host_ids.size());
      for (const std::uint64_t id : host_ids) {
        if (host_intern[id] == util::kInvalidInternId) {
          host_intern[id] = history->restore_host(table.view(id));
        }
        interned.push_back(host_intern[id]);
      }
    }
    history->restore_entry_ids(table.view(ua_id), flags == 1,
                               std::move(interned));
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "ua history: trailing bytes after the last entry");
    return false;
  }
  return true;
}

// ---- Plain string-set sections (top sites, intel) ----

std::string encode_string_set_section(const std::vector<std::string_view>& strings,
                                      const TableIndex& index) {
  util::ByteWriter out;
  out.reserve(strings.size() * 3 + 10);
  const std::vector<std::uint64_t> ids = sorted_ids(index, strings);
  out.varint(ids.size());
  encode_id_run(out, ids);
  return out.take();
}

bool decode_string_set_section(std::string_view payload,
                               const DecodedTable& table, const char* what,
                               std::vector<std::string>& out,
                               LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t count = 0;
  if (!in.varint(count)) {
    set_status(status, LoadError::Truncated,
               std::string(what) + ": count cut short");
    return false;
  }
  std::vector<std::uint64_t> ids;
  if (!decode_id_run(in, count, table.size(), ids) || !in.at_end()) {
    set_status(status, LoadError::Malformed,
               std::string(what) + ": bad id sequence");
    return false;
  }
  out.clear();
  out.reserve(ids.size());
  for (const std::uint64_t id : ids) out.emplace_back(table.view(id));
  return true;
}

std::vector<std::string_view> top_site_views(const profile::TopSitesList& sites) {
  std::vector<std::string_view> views;
  views.reserve(sites.size());
  for (const std::string& site : sites.sites()) views.push_back(site);
  return views;
}

// ---- Config ----

std::string encode_config_section(const core::PipelineConfig& config) {
  util::ByteWriter out;
  out.varint(config.popularity_threshold);
  out.varint(config.ua_rare_threshold);
  out.f64(config.periodicity.bin_width_seconds);
  out.f64(config.periodicity.jeffrey_threshold);
  out.varint(config.periodicity.min_intervals);
  out.u8(config.periodicity.metric == timing::HistogramMetric::L1 ? 1 : 0);
  out.f64(config.cc_threshold);
  out.f64(config.sim_threshold);
  out.varint(config.bp_max_iterations);
  out.varint(1);  // reserved slot (once the analysis thread count)
  out.varint(1);  // reserved slot (once an ingest shard count)
  return out.take();
}

bool decode_config_section(std::string_view payload,
                           core::PipelineConfig& config, LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t popularity = 0;
  std::uint64_t ua_rare = 0;
  std::uint64_t min_intervals = 0;
  std::uint8_t metric = 0;
  std::uint64_t bp_iter = 0;
  std::uint64_t reserved_threads = 0;
  std::uint64_t reserved_shards = 0;
  if (!in.varint(popularity) || !in.varint(ua_rare) ||
      !in.f64(config.periodicity.bin_width_seconds) ||
      !in.f64(config.periodicity.jeffrey_threshold) ||
      !in.varint(min_intervals) || !in.u8(metric) ||
      !in.f64(config.cc_threshold) || !in.f64(config.sim_threshold) ||
      !in.varint(bp_iter) || !in.varint(reserved_threads) ||
      !in.varint(reserved_shards) ||
      !in.at_end()) {
    set_status(status, LoadError::Truncated, "config: section cut short");
    return false;
  }
  // The reserved slots must be >= 1 and are otherwise ignored, so
  // checkpoints written with any thread or shard count still load.
  const double bin_width = config.periodicity.bin_width_seconds;
  const double jeffrey = config.periodicity.jeffrey_threshold;
  if (popularity == 0 || ua_rare == 0 || min_intervals == 0 || bp_iter == 0 ||
      reserved_threads == 0 || reserved_shards == 0 || metric > 1 ||
      !std::isfinite(bin_width) || !(bin_width > 0) ||
      !std::isfinite(jeffrey) || !(jeffrey >= 0) ||
      !std::isfinite(config.cc_threshold) ||
      !std::isfinite(config.sim_threshold)) {
    set_status(status, LoadError::Malformed, "config: value out of range");
    return false;
  }
  config.popularity_threshold = static_cast<std::size_t>(popularity);
  config.ua_rare_threshold = static_cast<std::size_t>(ua_rare);
  config.periodicity.min_intervals = static_cast<std::size_t>(min_intervals);
  config.periodicity.metric = metric == 1 ? timing::HistogramMetric::L1
                                          : timing::HistogramMetric::Jeffrey;
  config.bp_max_iterations = static_cast<std::size_t>(bp_iter);
  return true;
}

// ---- Scored models ----

void encode_doubles(util::ByteWriter& out, const std::vector<double>& values) {
  out.varint(values.size());
  for (const double v : values) out.f64(v);
}

bool decode_doubles(util::ByteReader& in, std::vector<double>& out) {
  std::uint64_t count = 0;
  if (!in.varint(count)) return false;
  if (count > in.remaining() / 8) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    double value = 0.0;
    if (!in.f64(value)) return false;
    out.push_back(value);
  }
  return true;
}

std::string encode_model_section(const core::ScoredModel& model,
                                 double threshold) {
  util::ByteWriter out;
  out.f64(threshold);
  out.f64(model.score_offset);
  out.f64(model.score_scale);
  out.f64(model.model.intercept);
  out.f64(model.model.intercept_std_error);
  out.f64(model.model.r_squared);
  out.f64(model.model.residual_variance);
  out.varint(model.model.n_samples);
  encode_doubles(out, model.model.weights);
  encode_doubles(out, model.model.std_errors);
  encode_doubles(out, model.model.t_stats);
  encode_doubles(out, model.scaler.mins());
  encode_doubles(out, model.scaler.maxs());
  return out.take();
}

bool decode_model_section(std::string_view payload, const char* what,
                          core::ScoredModel& model, LoadStatus* status) {
  util::ByteReader in(payload);
  double threshold = 0.0;  // the config section's Tc/Ts is the one in force
  std::uint64_t n_samples = 0;
  std::vector<double> mins;
  std::vector<double> maxs;
  if (!in.f64(threshold) || !in.f64(model.score_offset) ||
      !in.f64(model.score_scale) || !in.f64(model.model.intercept) ||
      !in.f64(model.model.intercept_std_error) ||
      !in.f64(model.model.r_squared) || !in.f64(model.model.residual_variance) ||
      !in.varint(n_samples) || !decode_doubles(in, model.model.weights) ||
      !decode_doubles(in, model.model.std_errors) ||
      !decode_doubles(in, model.model.t_stats) || !decode_doubles(in, mins) ||
      !decode_doubles(in, maxs) || !in.at_end()) {
    set_status(status, LoadError::Truncated,
               std::string(what) + ": section cut short");
    return false;
  }
  if (model.score_scale == 0.0 || mins.size() != maxs.size() ||
      mins.size() != model.model.weights.size()) {
    set_status(status, LoadError::Malformed,
               std::string(what) + ": inconsistent model dimensions");
    return false;
  }
  model.model.n_samples = static_cast<std::size_t>(n_samples);
  model.scaler.restore(std::move(mins), std::move(maxs));
  return true;
}

// ---- Training stats / counters ----

std::string encode_training_section(const TrainingStats& training) {
  util::ByteWriter out;
  out.f64(training.whois_age_sum);
  out.f64(training.whois_validity_sum);
  out.varint(training.whois_samples);
  out.u8(training.models_ready ? 1 : 0);
  return out.take();
}

bool decode_training_section(std::string_view payload, TrainingStats& training,
                             LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint8_t ready = 0;
  if (!in.f64(training.whois_age_sum) || !in.f64(training.whois_validity_sum) ||
      !in.varint(training.whois_samples) || !in.u8(ready) || !in.at_end()) {
    set_status(status, LoadError::Truncated, "training stats: section cut short");
    return false;
  }
  if (ready > 1) {
    set_status(status, LoadError::Malformed,
               "training stats: bad models-ready flag");
    return false;
  }
  training.models_ready = ready == 1;
  return true;
}

// ---- Unfinalized training rows (mid-training crash resume) ----

namespace {

void encode_matrix(util::ByteWriter& out, std::uint64_t cols,
                   const std::vector<double>& values,
                   const std::vector<double>& labels) {
  out.varint(cols);
  out.varint(labels.size());
  for (const double v : values) out.f64(v);
  for (const double v : labels) out.f64(v);
}

/// `width` is the feature count this build trains on: a non-empty matrix
/// of any other width could not be imported, so it fails here, once.
bool decode_matrix(util::ByteReader& in, const char* what, std::uint64_t width,
                   std::uint64_t& cols, std::vector<double>& values,
                   std::vector<double>& labels, LoadStatus* status) {
  std::uint64_t rows = 0;
  if (!in.varint(cols) || !in.varint(rows)) {
    set_status(status, LoadError::Truncated,
               std::string("training rows: ") + what + " header cut short");
    return false;
  }
  if (rows > 0 && cols != width) {
    set_status(status, LoadError::Malformed,
               std::string("training rows: ") + what + " rows are " +
                   std::to_string(cols) + " wide, this build trains on " +
                   std::to_string(width));
    return false;
  }
  // 8 bytes per f64, (cols + 1) f64s per row: a corrupt header cannot
  // force a huge allocation past this bound.
  if (cols > 64 || rows > in.remaining() / 8 / (cols + 1)) {
    set_status(status, LoadError::Malformed,
               std::string("training rows: ") + what + " dimensions too large");
    return false;
  }
  values.clear();
  values.reserve(static_cast<std::size_t>(rows * cols));
  labels.clear();
  labels.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows * cols; ++i) {
    double v = 0.0;
    if (!in.f64(v)) {
      set_status(status, LoadError::Truncated,
                 std::string("training rows: ") + what + " values cut short");
      return false;
    }
    values.push_back(v);
  }
  for (std::uint64_t i = 0; i < rows; ++i) {
    double v = 0.0;
    if (!in.f64(v)) {
      set_status(status, LoadError::Truncated,
                 std::string("training rows: ") + what + " labels cut short");
      return false;
    }
    labels.push_back(v);
  }
  return true;
}

}  // namespace

std::string encode_training_rows_section(const TrainingRows& rows) {
  util::ByteWriter out;
  out.reserve((rows.cc.size() + rows.cc_labels.size() + rows.sim.size() +
               rows.sim_labels.size()) *
                  8 +
              40);
  encode_matrix(out, rows.cc_cols, rows.cc, rows.cc_labels);
  encode_matrix(out, rows.sim_cols, rows.sim, rows.sim_labels);
  return out.take();
}

bool decode_training_rows_section(std::string_view payload, TrainingRows& rows,
                                  LoadStatus* status) {
  util::ByteReader in(payload);
  if (!decode_matrix(in, "c&c", features::kCcFeatureCount, rows.cc_cols,
                     rows.cc, rows.cc_labels, status) ||
      !decode_matrix(in, "similarity", features::kSimFeatureCount,
                     rows.sim_cols, rows.sim, rows.sim_labels, status)) {
    return false;
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "training rows: trailing bytes after the last matrix");
    return false;
  }
  return true;
}

std::string encode_counters_section(const Counters& counters) {
  util::ByteWriter out;
  out.varint(counters.days_operated);
  return out.take();
}

bool decode_counters_section(std::string_view payload, Counters& counters,
                             LoadStatus* status) {
  util::ByteReader in(payload);
  if (!in.varint(counters.days_operated) || !in.at_end()) {
    set_status(status, LoadError::Truncated, "counters: section cut short");
    return false;
  }
  return true;
}

// ---- Shared container scaffolding ----

const Section* require_section(const ContainerReader& reader, SectionId id,
                               const char* what, LoadStatus* status) {
  const Section* section = reader.find(id);
  if (section == nullptr) {
    set_status(status, LoadError::MissingSection,
               std::string(what) + " section missing");
  }
  return section;
}

/// Parse the container and decode its string table — the common prologue
/// of every load path.
std::optional<ContainerReader> open_container(std::string_view bytes,
                                              DecodedTable& table,
                                              LoadStatus* status) {
  auto reader = ContainerReader::parse(bytes, status);
  if (!reader) return std::nullopt;
  const Section* strings =
      require_section(*reader, SectionId::StringTable, "string table", status);
  if (strings == nullptr) return std::nullopt;
  if (!decode_string_table(strings->payload, table, status)) return std::nullopt;
  return reader;
}

}  // namespace detail

using namespace detail;

// ---- Full detector state ----

DetectorStateView view_of(const DetectorState& state) {
  DetectorStateView view;
  view.config = &state.config;
  view.domain_history = &state.domain_history;
  view.ua_history = &state.ua_history;
  view.top_sites = state.has_top_sites ? &state.top_sites : nullptr;
  view.cc_model = &state.cc_model;
  view.sim_model = &state.sim_model;
  view.training = state.training;
  view.intel_domains = &state.intel_domains;
  view.counters = state.counters;
  view.training_rows = &state.training_rows;
  return view;
}

std::string encode_detector_state(const DetectorStateView& state) {
  const bool has_intel =
      state.intel_domains != nullptr && !state.intel_domains->empty();
  std::vector<std::string_view> all = domain_views(*state.domain_history);
  {
    const std::vector<std::string_view> uas = ua_views(*state.ua_history);
    all.insert(all.end(), uas.begin(), uas.end());
  }
  if (state.top_sites != nullptr) {
    const std::vector<std::string_view> sites = top_site_views(*state.top_sites);
    all.insert(all.end(), sites.begin(), sites.end());
  }
  if (has_intel) {
    for (const std::string& domain : *state.intel_domains) {
      all.push_back(domain);
    }
  }
  const StringTable table = sorted_unique(std::move(all));
  const TableIndex index(table);

  ContainerWriter writer;
  writer.add_section(SectionId::StringTable,
                     encode_string_table(table));
  writer.add_section(SectionId::Config, encode_config_section(*state.config));
  writer.add_section(
      SectionId::DomainHistory,
      encode_domain_history_section(*state.domain_history, index));
  writer.add_section(SectionId::UaHistory,
                     encode_ua_history_section(*state.ua_history, index));
  if (state.top_sites != nullptr) {
    writer.add_section(
        SectionId::TopSites,
        encode_string_set_section(top_site_views(*state.top_sites), index));
  }
  writer.add_section(
      SectionId::CcModel,
      encode_model_section(*state.cc_model, state.config->cc_threshold));
  writer.add_section(
      SectionId::SimModel,
      encode_model_section(*state.sim_model, state.config->sim_threshold));
  writer.add_section(SectionId::TrainingStats,
                     encode_training_section(state.training));
  if (has_intel) {
    const std::vector<std::string_view> intel(state.intel_domains->begin(),
                                              state.intel_domains->end());
    writer.add_section(SectionId::Intel,
                       encode_string_set_section(intel, index));
  }
  writer.add_section(SectionId::Counters,
                     encode_counters_section(state.counters));
  if (state.training_rows != nullptr && !state.training_rows->empty()) {
    writer.add_section(SectionId::TrainingRows,
                       encode_training_rows_section(*state.training_rows));
  }
  return writer.encode();
}

std::optional<DetectorState> decode_detector_state(std::string_view bytes,
                                                   LoadStatus* status) {
  DecodedTable table;
  const auto reader = open_container(bytes, table, status);
  if (!reader) return std::nullopt;

  DetectorState state;
  const Section* config =
      require_section(*reader, SectionId::Config, "config", status);
  const Section* domains =
      require_section(*reader, SectionId::DomainHistory, "domain history", status);
  const Section* uas =
      require_section(*reader, SectionId::UaHistory, "ua history", status);
  const Section* cc = require_section(*reader, SectionId::CcModel,
                                      "c&c model", status);
  const Section* sim = require_section(*reader, SectionId::SimModel,
                                       "similarity model", status);
  const Section* training = require_section(*reader, SectionId::TrainingStats,
                                            "training stats", status);
  const Section* counters =
      require_section(*reader, SectionId::Counters, "counters", status);
  if (config == nullptr || domains == nullptr || uas == nullptr ||
      cc == nullptr || sim == nullptr || training == nullptr ||
      counters == nullptr) {
    return std::nullopt;
  }
  if (!decode_config_section(config->payload, state.config, status)) {
    return std::nullopt;
  }
  if (!decode_domain_history_section(domains->payload, table,
                                     state.domain_history, status)) {
    return std::nullopt;
  }
  std::optional<profile::UaHistory> ua_history;
  if (!decode_ua_history_section(uas->payload, table, ua_history, status)) {
    return std::nullopt;
  }
  state.ua_history = std::move(*ua_history);
  if (const Section* sites = reader->find(SectionId::TopSites)) {
    std::vector<std::string> names;
    if (!decode_string_set_section(sites->payload, table, "top sites", names,
                                   status)) {
      return std::nullopt;
    }
    for (const std::string& name : names) state.top_sites.add(name);
    state.has_top_sites = true;
  }
  if (!decode_model_section(cc->payload, "c&c model", state.cc_model, status) ||
      !decode_model_section(sim->payload, "similarity model", state.sim_model,
                            status) ||
      !decode_training_section(training->payload, state.training, status) ||
      !decode_counters_section(counters->payload, state.counters, status)) {
    return std::nullopt;
  }
  if (const Section* intel = reader->find(SectionId::Intel)) {
    if (!decode_string_set_section(intel->payload, table, "intel",
                                   state.intel_domains, status)) {
      return std::nullopt;
    }
  }
  if (const Section* rows = reader->find(SectionId::TrainingRows)) {
    if (!decode_training_rows_section(rows->payload, state.training_rows,
                                      status)) {
      return std::nullopt;
    }
  }
  return state;
}

namespace {

struct StateMetrics {
  obs::Counter& saves = obs::metrics().counter("eid_state_saves_total");
  obs::Counter& loads = obs::metrics().counter("eid_state_loads_total");
  obs::Counter& saved_bytes =
      obs::metrics().counter("eid_state_saved_bytes_total");
  obs::Counter& loaded_bytes =
      obs::metrics().counter("eid_state_loaded_bytes_total");
  obs::Histogram& save_seconds = obs::metrics().histogram(
      "eid_state_save_seconds", obs::duration_buckets());
  obs::Histogram& load_seconds = obs::metrics().histogram(
      "eid_state_load_seconds", obs::duration_buckets());
};

StateMetrics& state_metrics() {
  static StateMetrics metrics;
  return metrics;
}

}  // namespace

bool save_detector_state(const DetectorStateView& state,
                         const std::filesystem::path& path,
                         LoadStatus* status, std::uint32_t* binding) {
  const obs::TraceSpan span("state_save", "storage");
  const auto start = std::chrono::steady_clock::now();
  const std::string bytes = encode_detector_state(state);
  const bool ok = write_file_atomic(path, bytes, status);
  StateMetrics& metrics = state_metrics();
  if (ok) {
    metrics.saves.add(1);
    metrics.saved_bytes.add(bytes.size());
    if (binding != nullptr) *binding = base_binding(bytes);
  }
  metrics.save_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return ok;
}

void detail::record_state_load(bool ok, std::uint64_t bytes,
                               std::chrono::steady_clock::time_point start) {
  StateMetrics& metrics = state_metrics();
  if (ok) {
    metrics.loads.add(1);
    metrics.loaded_bytes.add(bytes);
  }
  metrics.load_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

std::optional<DetectorState> load_detector_state(
    const std::filesystem::path& path, LoadStatus* status) {
  const obs::TraceSpan span("state_load", "storage");
  const auto start = std::chrono::steady_clock::now();
  const auto bytes = read_file(path, status);
  if (!bytes) return std::nullopt;
  auto state = decode_detector_state(*bytes, status);
  detail::record_state_load(state.has_value(), bytes->size(), start);
  return state;
}

std::uint32_t base_binding(std::string_view bytes) {
  const auto reader = ContainerReader::parse(bytes);
  if (!reader) return 0;
  util::ByteWriter trailers;
  for (const Section& section : reader->sections()) {
    trailers.u32le(section.crc);
  }
  return util::crc32(trailers.data());
}

}  // namespace eid::storage
