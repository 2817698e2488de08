// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the per-section integrity
// check of the storage container format. Month-scale profile checkpoints
// are rewritten daily on commodity disks; a flipped bit in a checkpoint
// must surface as a clean load failure, never as a silently poisoned
// detector state.
#pragma once

#include <cstdint>
#include <string_view>

namespace eid::util {

/// CRC-32 of `data`, continuing from `crc` (pass the previous return value
/// to checksum a buffer in pieces; the default starts a fresh checksum).
std::uint32_t crc32(std::string_view data, std::uint32_t crc = 0);

}  // namespace eid::util
