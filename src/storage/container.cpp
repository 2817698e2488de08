#include "storage/container.h"

#include <cstdio>
#include <fstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/binary.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace eid::storage {

/// Flush a path's data (and, for directories, the rename record) to
/// stable storage. Without this, "atomic" tmp+rename only protects
/// against process crashes — a power loss after the rename is journaled
/// but before the data blocks land can leave the path pointing at a
/// torn file, losing the previous good checkpoint.
void sync_path_durable(const std::filesystem::path& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

void ContainerWriter::add_section(SectionId id, std::string payload) {
  sections_.emplace_back(static_cast<std::uint64_t>(id), std::move(payload));
}

std::string ContainerWriter::encode() const {
  util::ByteWriter out;
  // Header + per section: id/size varints (<= 10 each), payload, CRC.
  std::size_t bound = kContainerMagic.size() + 20;
  for (const auto& [id, payload] : sections_) bound += payload.size() + 24;
  out.reserve(bound);
  out.bytes(kContainerMagic);
  out.varint(kFormatVersion);
  out.varint(sections_.size());
  for (const auto& [id, payload] : sections_) {
    out.varint(id);
    out.varint(payload.size());
    out.bytes(payload);
    out.u32le(util::crc32(payload));
  }
  return out.take();
}

std::optional<ContainerReader> ContainerReader::parse(std::string_view bytes,
                                                      LoadStatus* status) {
  if (bytes.size() < kContainerMagic.size() ||
      bytes.substr(0, kContainerMagic.size()) != kContainerMagic) {
    set_status(status, LoadError::BadMagic, "not an EIDSTOR1 container");
    return std::nullopt;
  }
  util::ByteReader in(bytes.substr(kContainerMagic.size()));
  std::uint64_t version = 0;
  if (!in.varint(version)) {
    set_status(status, LoadError::Truncated, "file ends inside the header");
    return std::nullopt;
  }
  if (version != kFormatVersion) {
    set_status(status, LoadError::UnsupportedVersion,
               "container format version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kFormatVersion) + ")");
    return std::nullopt;
  }
  std::uint64_t n_sections = 0;
  if (!in.varint(n_sections)) {
    set_status(status, LoadError::Truncated, "file ends inside the header");
    return std::nullopt;
  }
  ContainerReader reader;
  for (std::uint64_t s = 0; s < n_sections; ++s) {
    const std::string at = "section " + std::to_string(s);
    Section section;
    std::uint64_t size = 0;
    if (!in.varint(section.id) || !in.varint(size)) {
      set_status(status, LoadError::Truncated, at + ": header cut short");
      return std::nullopt;
    }
    if (size > in.remaining() || !in.bytes(static_cast<std::size_t>(size),
                                           section.payload)) {
      set_status(status, LoadError::Truncated, at + ": payload cut short");
      return std::nullopt;
    }
    if (!in.u32le(section.crc)) {
      set_status(status, LoadError::Truncated, at + ": checksum cut short");
      return std::nullopt;
    }
    if (util::crc32(section.payload) != section.crc) {
      set_status(status, LoadError::ChecksumMismatch,
                 at + " (id " + std::to_string(section.id) +
                     "): checksum mismatch");
      return std::nullopt;
    }
    reader.sections_.push_back(section);
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               std::to_string(in.remaining()) +
                   " trailing byte(s) after the last section");
    return std::nullopt;
  }
  return reader;
}

const Section* ContainerReader::find(SectionId id) const {
  for (const Section& section : sections_) {
    if (section.id == static_cast<std::uint64_t>(id)) return &section;
  }
  return nullptr;
}

std::optional<std::string> read_file(const std::filesystem::path& path,
                                     LoadStatus* status) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  if (faults.any_armed() &&
      faults.fail_open(util::FaultPoint::StorageOpenRead)) {
    set_status(status, LoadError::IoError,
               "injected open failure on " + path.string());
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // A present-but-unreadable file (permissions, I/O error) must not be
    // mistaken for "no checkpoint yet" — callers treat FileNotFound as a
    // benign first run.
    std::error_code ec;
    const bool exists = std::filesystem::exists(path, ec);
    set_status(status, exists && !ec ? LoadError::IoError : LoadError::FileNotFound,
               "cannot open " + path.string());
    return std::nullopt;
  }
  std::string bytes;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size > 0) {
    bytes.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(bytes.data(), size);
  }
  if (in.bad()) {
    set_status(status, LoadError::IoError, "read failed on " + path.string());
    return std::nullopt;
  }
  if (faults.any_armed()) {
    bool fail = false;
    faults.filter_read(util::FaultPoint::StorageRead, bytes, fail);
    if (fail) {
      set_status(status, LoadError::IoError,
                 "injected read failure on " + path.string());
      return std::nullopt;
    }
  }
  return bytes;
}

bool write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes, LoadStatus* status) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  const std::filesystem::path tmp = path.string() + ".tmp";
  if (faults.any_armed() &&
      faults.fail_open(util::FaultPoint::StorageOpenWrite)) {
    set_status(status, LoadError::IoError,
               "injected open failure on " + tmp.string());
    return false;
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      set_status(status, LoadError::IoError, "cannot open " + tmp.string());
      return false;
    }
    std::size_t allowed = bytes.size();
    bool injected_fail = false;
    if (faults.any_armed()) {
      allowed = faults.filter_write(util::FaultPoint::StorageWrite,
                                    bytes.size(), injected_fail);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(allowed));
    out.flush();  // surface disk-full before promoting the tmp file
    if (injected_fail) {
      // A simulated crash mid-write: the torn tmp file stays on disk
      // (that is what a real crash leaves) and the final path is never
      // touched — the previous good checkpoint survives.
      set_status(status, LoadError::IoError,
                 "injected torn write on " + tmp.string());
      return false;
    }
    if (!out) {
      set_status(status, LoadError::IoError, "write failed on " + tmp.string());
      std::remove(tmp.string().c_str());
      return false;
    }
  }
  sync_path_durable(tmp);
  if (faults.any_armed() &&
      faults.skip_rename(util::FaultPoint::StorageRename)) {
    // Simulated crash in the window between the tmp write and the rename:
    // a fully written tmp file exists but the final path still holds the
    // previous checkpoint.
    set_status(status, LoadError::IoError,
               "injected crash before rename of " + tmp.string());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    set_status(status, LoadError::IoError,
               "rename to " + path.string() + " failed: " + ec.message());
    std::remove(tmp.string().c_str());
    return false;
  }
  const std::filesystem::path dir = path.parent_path();
  sync_path_durable(dir.empty() ? std::filesystem::path(".") : dir);
  return true;
}

}  // namespace eid::storage
