// Internal encoding primitives shared by the full-checkpoint encoder
// (storage/state.cpp) and the delta-chain encoder (storage/delta.cpp):
// the front-coded string table, delta-coded id runs, and the per-section
// codecs both container kinds assemble from. NOT part of the public
// storage API — include storage/state.h or storage/delta.h instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/container.h"
#include "storage/state.h"

namespace eid::util {
class ByteReader;
class ByteWriter;
}

namespace eid::storage::detail {

using StringTable = std::vector<std::string_view>;

StringTable sorted_unique(StringTable strings);

/// Hashed lookup over the sorted table. Ids keep the table's sort order,
/// so id order == lexicographic order and encoded bytes are stable.
class TableIndex {
 public:
  explicit TableIndex(const StringTable& table) {
    ids_.reserve(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
      ids_.emplace(table[i], static_cast<std::uint64_t>(i));
    }
  }

  /// Id of `text` in the table. Caller guarantees membership.
  std::uint64_t id(std::string_view text) const {
    return ids_.find(text)->second;
  }

 private:
  std::unordered_map<std::string_view, std::uint64_t> ids_;
};

/// Decoded string table: all strings expanded into one arena, referenced
/// by (offset, length) spans.
struct DecodedTable {
  std::string arena;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;

  std::size_t size() const { return spans.size(); }
  std::string_view view(std::uint64_t i) const {
    const auto [offset, length] = spans[static_cast<std::size_t>(i)];
    return std::string_view(arena).substr(offset, length);
  }
};

std::string encode_string_table(const StringTable& table);
bool decode_string_table(std::string_view payload, DecodedTable& table,
                         LoadStatus* status);

void encode_id_run(util::ByteWriter& out, const std::vector<std::uint64_t>& ids);
bool decode_id_run(util::ByteReader& in, std::uint64_t count,
                   std::uint64_t table_size, std::vector<std::uint64_t>& out);
std::vector<std::uint64_t> sorted_ids(const TableIndex& index,
                                      const std::vector<std::string_view>& strings);

// ---- Section codecs ----

std::vector<std::string_view> domain_views(const profile::DomainHistory& history);
std::string encode_domain_history_section(const profile::DomainHistory& history,
                                          const TableIndex& index);
bool decode_domain_history_section(std::string_view payload,
                                   const DecodedTable& table,
                                   profile::DomainHistory& history,
                                   LoadStatus* status);

std::vector<std::string_view> ua_views(const profile::UaHistory& history);
std::string encode_ua_history_section(const profile::UaHistory& history,
                                      const TableIndex& index);
bool decode_ua_history_section(std::string_view payload,
                               const DecodedTable& table,
                               std::optional<profile::UaHistory>& history,
                               LoadStatus* status);

std::string encode_string_set_section(const std::vector<std::string_view>& strings,
                                      const TableIndex& index);
bool decode_string_set_section(std::string_view payload,
                               const DecodedTable& table, const char* what,
                               std::vector<std::string>& out,
                               LoadStatus* status);
std::vector<std::string_view> top_site_views(const profile::TopSitesList& sites);

std::string encode_config_section(const core::PipelineConfig& config);
bool decode_config_section(std::string_view payload,
                           core::PipelineConfig& config, LoadStatus* status);

std::string encode_model_section(const core::ScoredModel& model);
bool decode_model_section(std::string_view payload, const char* what,
                          core::ScoredModel& model, LoadStatus* status);

std::string encode_training_section(const TrainingStats& training);
bool decode_training_section(std::string_view payload, TrainingStats& training,
                             LoadStatus* status);

std::string encode_counters_section(const Counters& counters);
bool decode_counters_section(std::string_view payload, Counters& counters,
                             LoadStatus* status);

std::string encode_training_rows_section(const TrainingRows& rows);
bool decode_training_rows_section(std::string_view payload, TrainingRows& rows,
                                  LoadStatus* status);

// ---- Container scaffolding ----

const Section* require_section(const ContainerReader& reader, SectionId id,
                               const char* what, LoadStatus* status);

/// Count one checkpoint load on the process registry: eid_state_loads_total
/// and eid_state_loaded_bytes_total (`bytes` read) when `ok`, and the time
/// since `start` in eid_state_load_seconds either way.
void record_state_load(bool ok, std::uint64_t bytes,
                       std::chrono::steady_clock::time_point start);

/// Parse a container and decode its string table — the common prologue of
/// every load path.
std::optional<ContainerReader> open_container(std::string_view bytes,
                                              DecodedTable& table,
                                              LoadStatus* status);

}  // namespace eid::storage::detail
