#include "storage/delta.h"

#include <algorithm>
#include <fstream>

#include "obs/trace.h"
#include "storage/encoding.h"
#include "util/binary.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace eid::storage {

using namespace detail;

std::filesystem::path delta_chain_path(const std::filesystem::path& path) {
  return std::filesystem::path(path.string() + ".delta");
}

// ---- Frame encoding ----

namespace {

std::string encode_delta_header(const DeltaInputs& inputs) {
  util::ByteWriter out;
  out.u32le(inputs.base_crc);
  out.varint(inputs.seq);
  out.varint(static_cast<std::uint64_t>(inputs.day));
  return out.take();
}

std::string encode_domain_delta(const DeltaInputs& inputs,
                                const TableIndex& index) {
  util::ByteWriter out;
  out.reserve(inputs.new_domains->size() * 3 + 20);
  out.varint(inputs.days_ingested);
  const std::vector<std::string_view> views(inputs.new_domains->begin(),
                                            inputs.new_domains->end());
  const std::vector<std::uint64_t> ids = sorted_ids(index, views);
  out.varint(ids.size());
  encode_id_run(out, ids);
  return out.take();
}

std::string encode_ua_delta(const DeltaInputs& inputs,
                            const TableIndex& index) {
  struct EntryIds {
    std::uint64_t ua_id = 0;
    bool popular = false;
    std::vector<std::uint64_t> host_ids;
  };
  std::vector<EntryIds> entries;
  entries.reserve(inputs.ua_entries.size());
  for (const DeltaUaEntryView& entry : inputs.ua_entries) {
    EntryIds ids;
    ids.ua_id = index.id(entry.ua);
    ids.popular = entry.popular;
    if (!entry.popular) ids.host_ids = sorted_ids(index, entry.hosts);
    entries.push_back(std::move(ids));
  }
  // Table ids sort exactly like the strings they name, so the frame is
  // byte-stable regardless of journal (first-touch) order.
  std::sort(entries.begin(), entries.end(),
            [](const EntryIds& a, const EntryIds& b) {
              return a.ua_id < b.ua_id;
            });
  util::ByteWriter out;
  out.reserve(entries.size() * 8 + 20);
  out.varint(entries.size());
  for (const EntryIds& entry : entries) {
    out.varint(entry.ua_id);
    out.u8(entry.popular ? 1 : 0);
    if (entry.popular) continue;
    out.varint(entry.host_ids.size());
    encode_id_run(out, entry.host_ids);
  }
  return out.take();
}

std::string encode_cursor_section(const DeltaInputs& inputs) {
  util::ByteWriter out;
  out.varint(static_cast<std::uint64_t>(inputs.cursor_day));
  out.varint(inputs.cursor_offset);
  return out.take();
}

std::string encode_incidents_section(const core::IncidentStore& store,
                                     const TableIndex& index) {
  const std::vector<core::Incident> incidents = store.incidents();
  util::ByteWriter out;
  out.varint(static_cast<std::uint64_t>(store.next_id()));
  out.varint(incidents.size());
  std::vector<std::string_view> views;
  for (const core::Incident& incident : incidents) {
    out.varint(static_cast<std::uint64_t>(incident.id));
    out.varint(static_cast<std::uint64_t>(incident.first_seen));
    out.varint(static_cast<std::uint64_t>(incident.last_seen));
    out.varint(incident.days_active);
    out.varint(static_cast<std::uint64_t>(incident.first_evidence));
    out.varint(static_cast<std::uint64_t>(incident.last_evidence));
    for (const auto* set : {&incident.domains, &incident.hosts}) {
      views.assign(set->begin(), set->end());
      const std::vector<std::uint64_t> ids = sorted_ids(index, views);
      out.varint(ids.size());
      encode_id_run(out, ids);
    }
  }
  return out.take();
}

}  // namespace

std::string encode_delta_frame(const DeltaInputs& inputs) {
  // Frame-local string table over everything the frame references.
  std::vector<std::string_view> all;
  for (const std::string& domain : *inputs.new_domains) all.push_back(domain);
  for (const DeltaUaEntryView& entry : inputs.ua_entries) {
    all.push_back(entry.ua);
    all.insert(all.end(), entry.hosts.begin(), entry.hosts.end());
  }
  if (inputs.intel_domains != nullptr) {
    for (const std::string& domain : *inputs.intel_domains) {
      all.push_back(domain);
    }
  }
  if (inputs.top_sites != nullptr) {
    const std::vector<std::string_view> sites = top_site_views(*inputs.top_sites);
    all.insert(all.end(), sites.begin(), sites.end());
  }
  // Materialized (not iterated as a temporary): the views pushed into
  // `all` must stay alive until the string table below copies them.
  std::vector<core::Incident> incident_snapshot;
  if (inputs.incidents != nullptr) {
    incident_snapshot = inputs.incidents->incidents();
    for (const core::Incident& incident : incident_snapshot) {
      for (const std::string& domain : incident.domains) {
        all.push_back(domain);
      }
      for (const std::string& host : incident.hosts) all.push_back(host);
    }
  }
  const StringTable table = sorted_unique(std::move(all));
  const TableIndex index(table);

  ContainerWriter writer;
  writer.add_section(SectionId::DeltaHeader, encode_delta_header(inputs));
  writer.add_section(SectionId::StringTable, encode_string_table(table));
  writer.add_section(SectionId::DomainDelta,
                     encode_domain_delta(inputs, index));
  writer.add_section(SectionId::UaDelta, encode_ua_delta(inputs, index));
  writer.add_section(SectionId::Config, encode_config_section(*inputs.config));
  writer.add_section(SectionId::CcModel,
                     encode_model_section(*inputs.cc_model));
  writer.add_section(SectionId::SimModel,
                     encode_model_section(*inputs.sim_model));
  writer.add_section(SectionId::TrainingStats,
                     encode_training_section(inputs.training));
  writer.add_section(SectionId::Counters,
                     encode_counters_section(inputs.counters));
  if (inputs.training_rows != nullptr && !inputs.training_rows->empty()) {
    writer.add_section(SectionId::TrainingRows,
                       encode_training_rows_section(*inputs.training_rows));
  }
  if (inputs.intel_domains != nullptr) {
    const std::vector<std::string_view> intel(inputs.intel_domains->begin(),
                                              inputs.intel_domains->end());
    writer.add_section(SectionId::Intel,
                       encode_string_set_section(intel, index));
  }
  if (inputs.top_sites != nullptr) {
    writer.add_section(
        SectionId::TopSites,
        encode_string_set_section(top_site_views(*inputs.top_sites), index));
  }
  if (inputs.has_cursor) {
    writer.add_section(SectionId::RtCursor, encode_cursor_section(inputs));
  }
  if (inputs.incidents != nullptr) {
    writer.add_section(SectionId::Incidents,
                       encode_incidents_section(*inputs.incidents, index));
  }
  return writer.encode();
}

// ---- Frame decoding ----

namespace {

bool decode_delta_header(std::string_view payload, DeltaFrame& frame,
                         LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t seq = 0;
  std::uint64_t day = 0;
  if (!in.u32le(frame.base_crc) || !in.varint(seq) || !in.varint(day) ||
      !in.at_end()) {
    set_status(status, LoadError::Truncated, "delta header: cut short");
    return false;
  }
  if (seq == 0) {
    set_status(status, LoadError::Malformed, "delta header: zero seq");
    return false;
  }
  frame.seq = seq;
  frame.day = static_cast<std::int64_t>(day);
  return true;
}

bool decode_domain_delta(std::string_view payload, const DecodedTable& table,
                         DeltaFrame& frame, LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t count = 0;
  if (!in.varint(frame.days_ingested) || !in.varint(count)) {
    set_status(status, LoadError::Truncated, "domain delta: header cut short");
    return false;
  }
  std::vector<std::uint64_t> ids;
  if (!decode_id_run(in, count, table.size(), ids) || !in.at_end()) {
    set_status(status, LoadError::Malformed,
               "domain delta: bad domain id sequence");
    return false;
  }
  frame.new_domains.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    frame.new_domains.emplace_back(table.view(id));
  }
  return true;
}

bool decode_ua_delta(std::string_view payload, const DecodedTable& table,
                     DeltaFrame& frame, LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t count = 0;
  if (!in.varint(count)) {
    set_status(status, LoadError::Truncated, "ua delta: header cut short");
    return false;
  }
  if (count > in.remaining()) {
    set_status(status, LoadError::Malformed, "ua delta: count too large");
    return false;
  }
  frame.ua_entries.reserve(static_cast<std::size_t>(count));
  std::vector<std::uint64_t> host_ids;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bad = [&](const char* what) {
      set_status(status, LoadError::Malformed,
                 "ua delta: entry " + std::to_string(i) + ": " + what);
      return false;
    };
    std::uint64_t ua_id = 0;
    std::uint8_t flags = 0;
    if (!in.varint(ua_id) || !in.u8(flags)) return bad("cut short");
    if (ua_id >= table.size()) return bad("ua id out of range");
    if (flags > 1) return bad("unknown flags");
    DeltaFrame::UaEntry entry;
    entry.ua = std::string(table.view(ua_id));
    entry.popular = flags == 1;
    if (!entry.popular) {
      std::uint64_t n_hosts = 0;
      if (!in.varint(n_hosts)) return bad("host count cut short");
      if (!decode_id_run(in, n_hosts, table.size(), host_ids)) {
        return bad("bad host id sequence");
      }
      entry.hosts.reserve(host_ids.size());
      for (const std::uint64_t id : host_ids) {
        entry.hosts.emplace_back(table.view(id));
      }
    }
    frame.ua_entries.push_back(std::move(entry));
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "ua delta: trailing bytes after the last entry");
    return false;
  }
  return true;
}

bool decode_cursor_section(std::string_view payload, DeltaFrame& frame,
                           LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t day = 0;
  if (!in.varint(day) || !in.varint(frame.cursor_offset) || !in.at_end()) {
    set_status(status, LoadError::Truncated, "rt cursor: cut short");
    return false;
  }
  frame.cursor_day = static_cast<std::int64_t>(day);
  frame.has_cursor = true;
  return true;
}

bool decode_incidents_section(std::string_view payload,
                              const DecodedTable& table, DeltaFrame& frame,
                              LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t next_id = 0;
  std::uint64_t count = 0;
  if (!in.varint(next_id) || !in.varint(count)) {
    set_status(status, LoadError::Truncated, "incidents: header cut short");
    return false;
  }
  if (next_id > (1u << 30) || count > in.remaining()) {
    set_status(status, LoadError::Malformed, "incidents: counts too large");
    return false;
  }
  frame.incidents_next_id = static_cast<int>(next_id);
  frame.incidents.reserve(static_cast<std::size_t>(count));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bad = [&](const char* what) {
      set_status(status, LoadError::Malformed,
                 "incidents: entry " + std::to_string(i) + ": " + what);
      return false;
    };
    std::uint64_t id = 0;
    std::uint64_t first_seen = 0;
    std::uint64_t last_seen = 0;
    std::uint64_t days_active = 0;
    std::uint64_t first_evidence = 0;
    std::uint64_t last_evidence = 0;
    if (!in.varint(id) || !in.varint(first_seen) || !in.varint(last_seen) ||
        !in.varint(days_active) || !in.varint(first_evidence) ||
        !in.varint(last_evidence)) {
      return bad("cut short");
    }
    if (id >= next_id) return bad("id at or past next_id");
    core::Incident incident;
    incident.id = static_cast<int>(id);
    incident.first_seen = static_cast<util::Day>(first_seen);
    incident.last_seen = static_cast<util::Day>(last_seen);
    incident.days_active = static_cast<std::size_t>(days_active);
    incident.first_evidence = static_cast<util::TimePoint>(first_evidence);
    incident.last_evidence = static_cast<util::TimePoint>(last_evidence);
    std::uint64_t n = 0;
    if (!in.varint(n)) return bad("domain count cut short");
    if (!decode_id_run(in, n, table.size(), ids)) {
      return bad("bad domain id sequence");
    }
    for (const std::uint64_t d : ids) {
      incident.domains.emplace(table.view(d));
    }
    if (!in.varint(n)) return bad("host count cut short");
    if (!decode_id_run(in, n, table.size(), ids)) {
      return bad("bad host id sequence");
    }
    for (const std::uint64_t h : ids) incident.hosts.emplace(table.view(h));
    frame.incidents.push_back(std::move(incident));
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "incidents: trailing bytes after the last entry");
    return false;
  }
  frame.has_incidents = true;
  return true;
}

}  // namespace

std::optional<DeltaFrame> decode_delta_frame(std::string_view payload,
                                             LoadStatus* status) {
  DecodedTable table;
  const auto reader = open_container(payload, table, status);
  if (!reader) return std::nullopt;

  DeltaFrame frame;
  const Section* header =
      require_section(*reader, SectionId::DeltaHeader, "delta header", status);
  const Section* domains =
      require_section(*reader, SectionId::DomainDelta, "domain delta", status);
  const Section* uas =
      require_section(*reader, SectionId::UaDelta, "ua delta", status);
  const Section* config =
      require_section(*reader, SectionId::Config, "config", status);
  const Section* cc =
      require_section(*reader, SectionId::CcModel, "c&c model", status);
  const Section* sim =
      require_section(*reader, SectionId::SimModel, "similarity model", status);
  const Section* training = require_section(*reader, SectionId::TrainingStats,
                                            "training stats", status);
  const Section* counters =
      require_section(*reader, SectionId::Counters, "counters", status);
  if (header == nullptr || domains == nullptr || uas == nullptr ||
      config == nullptr || cc == nullptr || sim == nullptr ||
      training == nullptr || counters == nullptr) {
    return std::nullopt;
  }
  if (!decode_delta_header(header->payload, frame, status) ||
      !decode_domain_delta(domains->payload, table, frame, status) ||
      !decode_ua_delta(uas->payload, table, frame, status) ||
      !decode_config_section(config->payload, frame.config, status) ||
      !decode_model_section(cc->payload, "c&c model", frame.cc_model, status) ||
      !decode_model_section(sim->payload, "similarity model", frame.sim_model,
                            status) ||
      !decode_training_section(training->payload, frame.training, status) ||
      !decode_counters_section(counters->payload, frame.counters, status)) {
    return std::nullopt;
  }
  if (const Section* rows = reader->find(SectionId::TrainingRows)) {
    if (!decode_training_rows_section(rows->payload, frame.training_rows,
                                      status)) {
      return std::nullopt;
    }
  }
  if (const Section* intel = reader->find(SectionId::Intel)) {
    if (!decode_string_set_section(intel->payload, table, "intel",
                                   frame.intel_domains, status)) {
      return std::nullopt;
    }
    frame.has_intel = true;
  }
  if (const Section* sites = reader->find(SectionId::TopSites)) {
    if (!decode_string_set_section(sites->payload, table, "top sites",
                                   frame.top_sites, status)) {
      return std::nullopt;
    }
    frame.has_top_sites = true;
  }
  if (const Section* cursor = reader->find(SectionId::RtCursor)) {
    if (!decode_cursor_section(cursor->payload, frame, status)) {
      return std::nullopt;
    }
  }
  if (const Section* incidents = reader->find(SectionId::Incidents)) {
    if (!decode_incidents_section(incidents->payload, table, frame, status)) {
      return std::nullopt;
    }
  }
  return frame;
}

// ---- Chain file I/O ----

namespace {

/// Frame-scan chain bytes: collect every complete CRC-clean frame and note
/// where (and why) the clean prefix ends.
void scan_chain_bytes(std::string_view bytes, DeltaChainInfo& info) {
  constexpr std::uint64_t kHeader = 12;  // magic(8) + size(4)
  info.file_bytes = bytes.size();
  std::uint64_t offset = 0;
  std::size_t n = 0;
  while (offset < bytes.size()) {
    const std::string at = "frame " + std::to_string(n);
    if (bytes.size() - offset < kHeader) {
      info.tail_detail = at + ": header cut short";
      break;
    }
    if (bytes.substr(offset, kDeltaMagic.size()) != kDeltaMagic) {
      info.tail_detail = at + ": bad frame magic";
      break;
    }
    std::uint32_t size = 0;
    for (int i = 0; i < 4; ++i) {
      size |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                  bytes[offset + kDeltaMagic.size() + i]))
              << (8 * i);
    }
    if (bytes.size() - offset - kHeader < static_cast<std::uint64_t>(size) + 4) {
      info.tail_detail = at + ": payload cut short";
      break;
    }
    const std::string_view payload = bytes.substr(offset + kHeader, size);
    std::uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
      stored_crc |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                        bytes[offset + kHeader + size + i]))
                    << (8 * i);
    }
    if (util::crc32(payload) != stored_crc) {
      info.tail_detail = at + ": checksum mismatch";
      break;
    }
    info.frames.push_back({offset, std::string(payload)});
    offset += kHeader + size + 4;
    ++n;
  }
  info.valid_bytes = offset;
  info.torn_tail = offset < bytes.size();
}

}  // namespace

bool read_delta_chain(const std::filesystem::path& chain_path,
                      DeltaChainInfo& info, LoadStatus* status) {
  info = DeltaChainInfo{};
  LoadStatus read_status;
  const auto bytes = read_file(chain_path, &read_status);
  if (!bytes) {
    if (read_status.error == LoadError::FileNotFound) return true;  // no chain
    if (status != nullptr) *status = read_status;
    return false;
  }
  scan_chain_bytes(*bytes, info);
  return true;
}

bool append_delta_frame(const std::filesystem::path& chain_path,
                        std::string_view payload, LoadStatus* status) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  // A previous crash may have left a torn tail; drop it so the new frame
  // starts at a clean boundary. (The scan reads without fault probes —
  // injected read faults target the load path, not this maintenance read.)
  {
    std::ifstream in(chain_path, std::ios::binary);
    if (in) {
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      in.close();
      DeltaChainInfo info;
      scan_chain_bytes(bytes, info);
      if (info.torn_tail) {
        std::error_code ec;
        std::filesystem::resize_file(chain_path, info.valid_bytes, ec);
        if (ec) {
          set_status(status, LoadError::IoError,
                     "cannot truncate torn tail of " + chain_path.string() +
                         ": " + ec.message());
          return false;
        }
      }
    }
  }
  if (faults.any_armed() &&
      faults.fail_open(util::FaultPoint::StorageOpenWrite)) {
    set_status(status, LoadError::IoError,
               "injected open failure on " + chain_path.string());
    return false;
  }
  util::ByteWriter frame;
  frame.reserve(kDeltaMagic.size() + 8 + payload.size());
  frame.bytes(kDeltaMagic);
  frame.u32le(static_cast<std::uint32_t>(payload.size()));
  frame.bytes(payload);
  frame.u32le(util::crc32(payload));
  const std::string& bytes = frame.data();

  std::ofstream out(chain_path, std::ios::binary | std::ios::app);
  if (!out) {
    set_status(status, LoadError::IoError,
               "cannot open " + chain_path.string());
    return false;
  }
  std::size_t allowed = bytes.size();
  bool injected_fail = false;
  if (faults.any_armed()) {
    allowed = faults.filter_write(util::FaultPoint::StorageAppend,
                                  bytes.size(), injected_fail);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(allowed));
  out.flush();
  if (injected_fail) {
    // Simulated crash mid-append: the torn tail stays on disk — exactly
    // what a real crash leaves — and the next append or load handles it.
    set_status(status, LoadError::IoError,
               "injected torn append on " + chain_path.string());
    return false;
  }
  if (!out) {
    set_status(status, LoadError::IoError,
               "append failed on " + chain_path.string());
    return false;
  }
  out.close();
  sync_path_durable(chain_path);
  return true;
}

// ---- Applying frames ----

void apply_delta_frame(DetectorState& state, const DeltaFrame& frame) {
  state.config = frame.config;
  state.cc_model = frame.cc_model;
  state.sim_model = frame.sim_model;
  state.training = frame.training;
  state.counters = frame.counters;
  state.domain_history.absorb(frame.new_domains,
                              static_cast<std::size_t>(frame.days_ingested));
  std::vector<std::string_view> host_views;
  for (const DeltaFrame::UaEntry& entry : frame.ua_entries) {
    host_views.assign(entry.hosts.begin(), entry.hosts.end());
    state.ua_history.restore_entry(
        entry.ua, entry.popular,
        std::span<const std::string_view>(host_views.data(),
                                          host_views.size()));
  }
  // Decoding pinned every non-empty matrix to this build's widths, so
  // rows append as they are.
  TrainingRows& rows = state.training_rows;
  const TrainingRows& add = frame.training_rows;
  if (!add.cc_labels.empty()) {
    rows.cc_cols = add.cc_cols;
    rows.cc.insert(rows.cc.end(), add.cc.begin(), add.cc.end());
    rows.cc_labels.insert(rows.cc_labels.end(), add.cc_labels.begin(),
                          add.cc_labels.end());
  }
  if (!add.sim_labels.empty()) {
    rows.sim_cols = add.sim_cols;
    rows.sim.insert(rows.sim.end(), add.sim.begin(), add.sim.end());
    rows.sim_labels.insert(rows.sim_labels.end(), add.sim_labels.begin(),
                           add.sim_labels.end());
  }
  if (frame.training.models_ready) {
    // Once finalize_training() happened the rows will never be re-solved;
    // an uninterrupted run drops them, so a resumed one does too.
    state.training_rows = TrainingRows{};
  }
  if (frame.has_intel) state.intel_domains = frame.intel_domains;
  if (frame.has_top_sites) {
    state.top_sites = profile::TopSitesList{};
    for (const std::string& site : frame.top_sites) state.top_sites.add(site);
    state.has_top_sites = true;
  }
}

// ---- Chain-aware load ----

namespace {

/// load_detector_state_chain without the metrics; `bytes_read` counts the
/// base and chain bytes read.
std::optional<DetectorState> load_chain(const std::filesystem::path& path,
                                        ChainLoadReport* report,
                                        LoadStatus* status,
                                        std::uint64_t& bytes_read) {
  const auto bytes = read_file(path, status);
  if (!bytes) return std::nullopt;
  auto state = decode_detector_state(*bytes, status);
  if (!state) return std::nullopt;
  bytes_read = bytes->size();

  ChainLoadReport local;
  ChainLoadReport& out = report != nullptr ? *report : local;
  out = ChainLoadReport{};
  out.base_crc = base_binding(*bytes);
  // Chains written before base_binding existed bind to the CRC-32 of the
  // whole base file. Accept them so an upgrade keeps their history; the
  // report marks the load so the next delta save compacts the chain away.
  const std::uint32_t legacy_crc = util::crc32(*bytes);

  DeltaChainInfo info;
  LoadStatus chain_status;
  if (!read_delta_chain(delta_chain_path(path), info, &chain_status)) {
    // The base loaded; an unreadable chain degrades to it.
    out.degraded = true;
    out.detail = chain_status.detail;
    return state;
  }
  bytes_read += info.file_bytes;
  out.torn_tail = info.torn_tail;
  if (info.torn_tail && out.detail.empty()) out.detail = info.tail_detail;

  std::uint64_t expect_seq = 1;
  for (std::size_t i = 0; i < info.frames.size(); ++i) {
    LoadStatus frame_status;
    const auto frame = decode_delta_frame(info.frames[i].payload,
                                          &frame_status);
    const auto drop = [&](const std::string& why) {
      out.degraded = true;
      out.frames_dropped = info.frames.size() - i;
      out.detail = "frame " + std::to_string(i) + ": " + why;
    };
    if (!frame) {
      drop(frame_status.detail);
      break;
    }
    if (frame->base_crc != out.base_crc) {
      if (frame->base_crc != legacy_crc) {
        drop("built on a different base checkpoint");
        break;
      }
      out.legacy_binding = true;
    }
    if (frame->seq != expect_seq) {
      drop("sequence gap (frame says " + std::to_string(frame->seq) +
           ", chain expects " + std::to_string(expect_seq) + ")");
      break;
    }
    apply_delta_frame(*state, *frame);
    ++out.frames_applied;
    out.last_seq = frame->seq;
    ++expect_seq;
    if (frame->has_cursor) {
      out.has_cursor = true;
      out.cursor_day = frame->cursor_day;
      out.cursor_offset = frame->cursor_offset;
    }
    if (frame->has_incidents) {
      out.has_incidents = true;
      out.incidents_next_id = frame->incidents_next_id;
      out.incidents = frame->incidents;
    }
  }
  return state;
}

}  // namespace

std::optional<DetectorState> load_detector_state_chain(
    const std::filesystem::path& path, ChainLoadReport* report,
    LoadStatus* status) {
  const obs::TraceSpan span("state_load", "storage");
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t bytes_read = 0;
  auto state = load_chain(path, report, status, bytes_read);
  detail::record_state_load(state.has_value(), bytes_read, start);
  return state;
}

}  // namespace eid::storage
