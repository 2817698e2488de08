// Load-failure reporting for every persistence path (full checkpoints and
// delta chains). Loaders return std::optional for the value and, through
// an optional out-param, a machine-checkable reason plus a human-oriented
// detail string — a SOC deployment restoring month-scale state at 6am
// needs "ua history: section checksum mismatch", not a bare nullopt.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace eid::storage {

enum class LoadError : std::uint8_t {
  None = 0,            ///< load succeeded
  FileNotFound,        ///< path missing or unreadable
  IoError,             ///< read/write syscall failure
  BadMagic,            ///< not an EIDSTOR1 container
  UnsupportedVersion,  ///< container from a newer format revision
  Truncated,           ///< file ends mid-structure
  ChecksumMismatch,    ///< section CRC32 does not match its payload
  Malformed,           ///< structurally decodable but semantically invalid
  MissingSection,      ///< required section absent from the container
};

constexpr const char* load_error_name(LoadError error) {
  switch (error) {
    case LoadError::None: return "none";
    case LoadError::FileNotFound: return "file-not-found";
    case LoadError::IoError: return "io-error";
    case LoadError::BadMagic: return "bad-magic";
    case LoadError::UnsupportedVersion: return "unsupported-version";
    case LoadError::Truncated: return "truncated";
    case LoadError::ChecksumMismatch: return "checksum-mismatch";
    case LoadError::Malformed: return "malformed";
    case LoadError::MissingSection: return "missing-section";
  }
  return "unknown";
}

struct LoadStatus {
  LoadError error = LoadError::None;
  std::string detail;  ///< human-oriented context ("line 41: ...", ...)

  bool ok() const { return error == LoadError::None; }
};

/// Record a failure into an optional status out-param (nullptr tolerated).
inline void set_status(LoadStatus* status, LoadError error,
                       std::string detail = {}) {
  if (status == nullptr) return;
  status->error = error;
  status->detail = std::move(detail);
}

}  // namespace eid::storage
