// Operator tooling for eid state files: inspect what a checkpoint or
// history file contains and verify its integrity (magic, structure, per-
// section CRC32).
//
// Usage:
//   state_tool inspect <file>
//   state_tool verify [--deep] <file>
//
// The input is either an EIDSTOR1 container (storage/container.h) or a
// delta-chain file ("EIDDELT1" frames, storage/delta.h), told apart by
// magic; anything else fails with bad-magic. Inspecting a full
// checkpoint also summarizes its companion <file>.delta chain.
// verify --deep prints a per-section CRC/size/decode report (and a
// per-frame report for delta chains) and exits nonzero on the first
// failure. Exit status: 0 on success, 1 on bad usage, 2 on a failed
// verify/load.
#include <cstdio>
#include <cstring>
#include <string>

#include "storage/container.h"
#include "storage/delta.h"
#include "storage/encoding.h"
#include "storage/state.h"

namespace {

using namespace eid;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s inspect <file>\n"
               "       %s verify [--deep] <file>\n"
               "\n"
               "inspect  describe a state/history/delta file (format, sections,\n"
               "         counts; full checkpoints include their .delta chain)\n"
               "verify   check integrity (magic, structure, section CRC32s);\n"
               "         --deep adds a per-section (and per-delta-frame)\n"
               "         CRC/size/decode report, nonzero exit on first failure\n",
               argv0, argv0);
  return 1;
}

const char* section_name(std::uint64_t id) {
  switch (static_cast<storage::SectionId>(id)) {
    case storage::SectionId::StringTable: return "string-table";
    case storage::SectionId::Config: return "config";
    case storage::SectionId::DomainHistory: return "domain-history";
    case storage::SectionId::UaHistory: return "ua-history";
    case storage::SectionId::TopSites: return "top-sites";
    case storage::SectionId::CcModel: return "cc-model";
    case storage::SectionId::SimModel: return "sim-model";
    case storage::SectionId::TrainingStats: return "training-stats";
    case storage::SectionId::Intel: return "intel";
    case storage::SectionId::Counters: return "counters";
    case storage::SectionId::TrainingRows: return "training-rows";
    case storage::SectionId::RtCursor: return "rt-cursor";
    case storage::SectionId::Incidents: return "incidents";
    case storage::SectionId::DeltaHeader: return "delta-header";
    case storage::SectionId::DomainDelta: return "domain-delta";
    case storage::SectionId::UaDelta: return "ua-delta";
  }
  return "unknown";
}

bool looks_like_delta_chain(const std::string& bytes) {
  return bytes.size() >= storage::kDeltaMagic.size() &&
         std::string_view(bytes).substr(0, storage::kDeltaMagic.size()) ==
             storage::kDeltaMagic;
}

void print_failure(const char* what, const storage::LoadStatus& status) {
  std::fprintf(stderr, "%s: %s%s%s\n", what,
               storage::load_error_name(status.error),
               status.detail.empty() ? "" : " — ", status.detail.c_str());
}

/// Summarize a delta chain file: frame count, seq/day spans, tail state.
/// `base_day` (last-compaction day, from the base checkpoint's counters)
/// is printed when the caller knows it; pass -1 otherwise.
int inspect_chain(const std::filesystem::path& chain_path,
                  long long base_day) {
  storage::DeltaChainInfo info;
  storage::LoadStatus status;
  if (!storage::read_delta_chain(chain_path, info, &status)) {
    print_failure("inspect", status);
    return 2;
  }
  std::printf("delta chain %s: %zu frame(s), %llu of %llu byte(s) valid%s\n",
              chain_path.string().c_str(), info.frames.size(),
              static_cast<unsigned long long>(info.valid_bytes),
              static_cast<unsigned long long>(info.file_bytes),
              info.torn_tail ? ", torn tail (next append truncates it)" : "");
  if (base_day >= 0) {
    std::printf("  last compaction: after operation day %lld\n", base_day);
  }
  std::uint64_t first_seq = 0, last_seq = 0;
  long long first_day = 0, last_day = 0;
  std::size_t decoded = 0;
  for (const auto& frame : info.frames) {
    const auto decoded_frame = storage::decode_delta_frame(frame.payload);
    if (!decoded_frame) continue;
    if (decoded == 0) {
      first_seq = decoded_frame->seq;
      first_day = decoded_frame->day;
    }
    last_seq = decoded_frame->seq;
    last_day = decoded_frame->day;
    ++decoded;
  }
  if (decoded > 0) {
    std::printf("  seq %llu..%llu, day %s..%s (%zu decodable frame(s))\n",
                static_cast<unsigned long long>(first_seq),
                static_cast<unsigned long long>(last_seq),
                util::format_day(first_day).c_str(),
                util::format_day(last_day).c_str(), decoded);
  }
  return 0;
}

/// Per-section decode report for one EIDSTOR1 container (a full state or
/// one delta-frame payload). Returns 0 when every section decodes.
int deep_verify_container(const std::string& bytes, const char* label) {
  storage::LoadStatus status;
  const auto reader = storage::ContainerReader::parse(bytes, &status);
  if (!reader) {
    print_failure(label, status);
    return 2;
  }
  namespace det = storage::detail;
  det::DecodedTable table;
  // The string table decodes first — id sections reference it.
  if (const storage::Section* section =
          reader->find(storage::SectionId::StringTable)) {
    if (!det::decode_string_table(section->payload, table, &status)) {
      std::printf("  %-14s id=%-3d %10zu bytes  crc ok  DECODE FAILED\n",
                  "string-table", 1, section->payload.size());
      print_failure(label, status);
      return 2;
    }
  }
  const bool is_delta_payload =
      reader->find(storage::SectionId::DeltaHeader) != nullptr;
  for (const storage::Section& section : reader->sections()) {
    bool ok = true;
    status = {};
    switch (static_cast<storage::SectionId>(section.id)) {
      case storage::SectionId::StringTable:
        break;  // decoded above
      case storage::SectionId::Config: {
        core::PipelineConfig config;
        ok = det::decode_config_section(section.payload, config, &status);
        break;
      }
      case storage::SectionId::DomainHistory: {
        profile::DomainHistory history;
        ok = det::decode_domain_history_section(section.payload, table,
                                                history, &status);
        break;
      }
      case storage::SectionId::UaHistory: {
        std::optional<profile::UaHistory> history;
        ok = det::decode_ua_history_section(section.payload, table, history,
                                            &status);
        break;
      }
      case storage::SectionId::TopSites:
      case storage::SectionId::Intel: {
        std::vector<std::string> strings;
        ok = det::decode_string_set_section(section.payload, table,
                                            section_name(section.id), strings,
                                            &status);
        break;
      }
      case storage::SectionId::CcModel:
      case storage::SectionId::SimModel: {
        core::ScoredModel model;
        ok = det::decode_model_section(section.payload,
                                       section_name(section.id), model,
                                       &status);
        break;
      }
      case storage::SectionId::TrainingStats: {
        storage::TrainingStats training;
        ok = det::decode_training_section(section.payload, training, &status);
        break;
      }
      case storage::SectionId::Counters: {
        storage::Counters counters;
        ok = det::decode_counters_section(section.payload, counters, &status);
        break;
      }
      case storage::SectionId::TrainingRows: {
        storage::TrainingRows rows;
        ok = det::decode_training_rows_section(section.payload, rows, &status);
        break;
      }
      case storage::SectionId::DeltaHeader:
      case storage::SectionId::DomainDelta:
      case storage::SectionId::UaDelta:
      case storage::SectionId::RtCursor:
      case storage::SectionId::Incidents:
        // Delta-frame sections decode as a unit below (they reference the
        // frame header and each other).
        break;
    }
    std::printf("  %-14s id=%-3llu %10zu bytes  crc ok  %s\n",
                section_name(section.id),
                static_cast<unsigned long long>(section.id),
                section.payload.size(), ok ? "decode ok" : "DECODE FAILED");
    if (!ok) {
      print_failure(label, status);
      return 2;
    }
  }
  if (is_delta_payload) {
    status = {};
    if (!storage::decode_delta_frame(bytes, &status)) {
      print_failure(label, status);
      return 2;
    }
    std::printf("  delta frame decodes as a unit\n");
  }
  return 0;
}

/// Deep verify of a delta chain: per-frame CRC (the scan) + full decode.
int deep_verify_chain(const std::filesystem::path& chain_path) {
  storage::DeltaChainInfo info;
  storage::LoadStatus status;
  if (!storage::read_delta_chain(chain_path, info, &status)) {
    print_failure("verify", status);
    return 2;
  }
  std::printf("delta chain %s: %zu frame(s)\n", chain_path.string().c_str(),
              info.frames.size());
  for (std::size_t i = 0; i < info.frames.size(); ++i) {
    const auto& frame = info.frames[i];
    status = {};
    const auto decoded = storage::decode_delta_frame(frame.payload, &status);
    if (!decoded) {
      std::printf("frame %zu @%llu: %zu bytes, crc ok, DECODE FAILED\n", i,
                  static_cast<unsigned long long>(frame.offset),
                  frame.payload.size());
      print_failure("verify", status);
      return 2;
    }
    std::printf("frame %zu @%llu: %zu bytes, crc ok, seq %llu, day %s, "
                "base binding %08llx\n",
                i, static_cast<unsigned long long>(frame.offset),
                frame.payload.size(),
                static_cast<unsigned long long>(decoded->seq),
                util::format_day(decoded->day).c_str(),
                static_cast<unsigned long long>(decoded->base_crc));
    const int rc = deep_verify_container(frame.payload, "verify");
    if (rc != 0) return rc;
  }
  if (info.torn_tail) {
    std::printf("note: torn tail past byte %llu (%s) — recoverable, the "
                "next append truncates it\n",
                static_cast<unsigned long long>(info.valid_bytes),
                info.tail_detail.c_str());
  }
  return 0;
}

int inspect_container(const std::string& bytes) {
  storage::LoadStatus status;
  const auto reader = storage::ContainerReader::parse(bytes, &status);
  if (!reader) {
    print_failure("inspect", status);
    return 2;
  }
  std::printf("format: eid binary container (EIDSTOR1, version %llu)\n",
              static_cast<unsigned long long>(storage::kFormatVersion));
  std::printf("size: %zu bytes, %zu section(s)\n", bytes.size(),
              reader->sections().size());
  for (const storage::Section& section : reader->sections()) {
    std::printf("  %-14s id=%-3llu %10zu bytes\n", section_name(section.id),
                static_cast<unsigned long long>(section.id),
                section.payload.size());
  }
  // Decoded summaries for the component sections we understand.
  if (reader->find(storage::SectionId::DomainHistory) != nullptr) {
    if (const auto history = storage::decode_domain_history(bytes)) {
      std::printf("domain history: %zu domain(s), %zu day(s) ingested\n",
                  history->size(), history->days_ingested());
    }
  }
  if (reader->find(storage::SectionId::UaHistory) != nullptr) {
    if (const auto history = storage::decode_ua_history(bytes)) {
      std::printf("ua history: %zu distinct UA(s), rare threshold %zu\n",
                  history->distinct_uas(), history->rare_threshold());
    }
  }
  if (reader->find(storage::SectionId::Config) != nullptr) {
    if (const auto state = storage::decode_detector_state(bytes)) {
      std::printf("detector state: models %s, %llu operation day(s), "
                  "%zu intel domain(s)%s\n",
                  state->training.models_ready ? "trained" : "untrained",
                  static_cast<unsigned long long>(state->counters.days_operated),
                  state->intel_domains.size(),
                  state->has_top_sites ? ", top-sites whitelist" : "");
    }
  }
  return 0;
}

int cmd_inspect(const std::filesystem::path& path) {
  storage::LoadStatus status;
  const auto bytes = storage::read_file(path, &status);
  if (!bytes) {
    print_failure("inspect", status);
    return 2;
  }
  if (looks_like_delta_chain(*bytes)) {
    std::printf("format: eid delta chain (EIDDELT1 frames)\n");
    return inspect_chain(path, -1);
  }
  const int rc = inspect_container(*bytes);
  if (rc != 0) return rc;
  // A full checkpoint's companion chain, when present.
  const std::filesystem::path chain_path = storage::delta_chain_path(path);
  std::error_code ec;
  if (std::filesystem::exists(chain_path, ec)) {
    long long base_day = -1;
    if (const auto state = storage::decode_detector_state(*bytes)) {
      base_day = static_cast<long long>(state->counters.days_operated);
    }
    return inspect_chain(chain_path, base_day);
  }
  return 0;
}

int cmd_verify(const std::filesystem::path& path, bool deep) {
  storage::LoadStatus status;
  const auto bytes = storage::read_file(path, &status);
  if (!bytes) {
    print_failure("verify", status);
    return 2;
  }
  if (looks_like_delta_chain(*bytes)) {
    if (deep) {
      const int rc = deep_verify_chain(path);
      if (rc != 0) return rc;
    } else {
      storage::DeltaChainInfo info;
      if (!storage::read_delta_chain(path, info, &status)) {
        print_failure("verify", status);
        return 2;
      }
      for (const auto& frame : info.frames) {
        if (!storage::decode_delta_frame(frame.payload, &status)) {
          print_failure("verify", status);
          return 2;
        }
      }
      if (info.torn_tail) {
        std::printf("note: torn tail past byte %llu — recoverable, the next "
                    "append truncates it\n",
                    static_cast<unsigned long long>(info.valid_bytes));
      }
      std::printf("OK: delta chain verified (%zu frame(s))\n",
                  info.frames.size());
    }
    return 0;
  }
  if (deep) {
    std::printf("deep verify %s:\n", path.string().c_str());
    const int rc = deep_verify_container(*bytes, "verify");
    if (rc != 0) return rc;
    // A full checkpoint's companion chain is part of its durability story:
    // verify it too when present.
    const std::filesystem::path chain_path = storage::delta_chain_path(path);
    std::error_code ec;
    if (std::filesystem::exists(chain_path, ec)) {
      const int chain_rc = deep_verify_chain(chain_path);
      if (chain_rc != 0) return chain_rc;
    }
    std::printf("OK: deep verify passed\n");
    return 0;
  }
  const auto reader = storage::ContainerReader::parse(*bytes, &status);
  if (!reader) {
    print_failure("verify", status);
    return 2;
  }
  // Structure + CRCs are good; decode every section we understand so
  // semantic corruption (bad ids, inconsistent dimensions) fails too.
  const bool full_state = reader->find(storage::SectionId::Config) != nullptr;
  if (full_state) {
    if (!storage::decode_detector_state(*bytes, &status)) {
      print_failure("verify", status);
      return 2;
    }
  } else {
    if (reader->find(storage::SectionId::DomainHistory) != nullptr &&
        !storage::decode_domain_history(*bytes, &status)) {
      print_failure("verify", status);
      return 2;
    }
    if (reader->find(storage::SectionId::UaHistory) != nullptr &&
        !storage::decode_ua_history(*bytes, &status)) {
      print_failure("verify", status);
      return 2;
    }
  }
  std::printf("OK: container verified (%zu section(s), all checksums good)\n",
              reader->sections().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  if (command == "inspect" && argc == 3) return cmd_inspect(argv[2]);
  if (command == "verify" && argc == 3) return cmd_verify(argv[2], false);
  if (command == "verify" && argc == 4 &&
      std::strcmp(argv[2], "--deep") == 0) {
    return cmd_verify(argv[3], true);
  }
  return usage(argv[0]);
}
