// Flat open-addressing table from distinct 64-bit keys to dense ids in
// insertion order. The day graph keys its edges ((host, domain) -> slot)
// and its distinct (edge slot, user agent) pairs with it, and the rt
// window dictionary its stream-wide edge ids. Two flat arrays and no
// per-entry node: an insert allocates only when a vector grows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace eid::util {

class KeyTable {
 public:
  /// Id of `key`, inserting it as id size() if new; `second` tells
  /// whether it was inserted.
  std::pair<std::uint32_t, bool> insert(std::uint64_t key) {
    if ((keys_.size() + 1) * 2 > cells_.size()) grow();
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t cell = hash(key) & mask;; cell = (cell + 1) & mask) {
      const std::uint32_t entry = cells_[cell];
      if (entry == 0) {
        const auto id = static_cast<std::uint32_t>(keys_.size());
        cells_[cell] = id + 1;
        keys_.push_back(key);
        return {id, true};
      }
      if (keys_[entry - 1] == key) return {entry - 1, false};
    }
  }

  std::size_t size() const { return keys_.size(); }

  /// Drop every key, keeping both arrays' capacity.
  void clear() {
    std::fill(cells_.begin(), cells_.end(), 0u);
    keys_.clear();
  }

  /// Key of an id. Requires id < size().
  std::uint64_t key(std::uint32_t id) const { return keys_[id]; }

  /// Every key, by id (insertion order).
  std::span<const std::uint64_t> keys() const { return keys_; }

 private:
  /// splitmix64 finalizer.
  static std::uint64_t hash(std::uint64_t key) {
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return key;
  }

  void grow() {
    cells_.assign(std::max<std::size_t>(64, cells_.size() * 2), 0);
    const std::size_t mask = cells_.size() - 1;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t cell = hash(keys_[id]) & mask;
      while (cells_[cell] != 0) cell = (cell + 1) & mask;
      cells_[cell] = id + 1;
    }
  }

  std::vector<std::uint32_t> cells_;  ///< id + 1; 0 marks a free cell
  std::vector<std::uint64_t> keys_;   ///< id -> key
};

}  // namespace eid::util
