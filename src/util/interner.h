// String interning: the graph and feature layers work on dense uint32 ids
// for hosts and domains; strings only live at the log/simulator boundary.
// An Interner is one open-addressing table of (64-bit hash, id) cells over
// address-stable name storage: a probe hashes its string_view once and
// compares text only on a full-hash match, so the per-event hot path
// never allocates for already-seen names.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eid::util {

/// Dense id assigned by an Interner. 0 is a valid id.
using InternId = std::uint32_t;

inline constexpr InternId kInvalidInternId = 0xffffffffu;

/// Transparent string hashing: lets unordered containers keyed by
/// std::string be probed with a string_view, so lookups on the per-event
/// hot path stop constructing temporary strings.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
  std::size_t operator()(const std::string& text) const noexcept {
    return std::hash<std::string_view>{}(std::string_view(text));
  }
};

/// Map keyed by owned strings but probed allocation-free with views.
template <typename Value>
using TransparentStringMap =
    std::unordered_map<std::string, Value, TransparentStringHash,
                       std::equal_to<>>;

/// Set of owned strings probed allocation-free with views.
using TransparentStringSet =
    std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>;

/// Bidirectional string <-> dense-id map. Ids follow first sight, and a
/// name() reference stays valid for as long as its name is held (later
/// interns and moves of the interner included). Not thread-safe; one day
/// path builds on one thread.
class Interner {
 public:
  Interner() = default;
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;
  // The cells are position-independent; the names get their own storage.
  Interner(const Interner& other) : cells_(other.cells_) {
    names_.reserve(other.names_.size());
    for (const std::string* name : other.names_) {
      names_.push_back(&storage_.emplace_back(*name));
    }
  }
  Interner& operator=(const Interner& other) {
    if (this != &other) *this = Interner(other);
    return *this;
  }

  /// Id for the string, inserting it if new. Allocates only on first sight.
  InternId intern(std::string_view text) {
    if ((names_.size() + 1) * 2 > cells_.size()) grow();
    const std::uint64_t hash = hash_of(text);
    Cell& cell = cells_[locate(text, hash)];
    if (cell.id == kInvalidInternId) {
      cell = Cell{hash, static_cast<InternId>(names_.size())};
      names_.push_back(store(text));
    }
    return cell.id;
  }

  /// Id for the string if already interned, kInvalidInternId otherwise.
  /// Allocation-free.
  InternId find(std::string_view text) const {
    if (cells_.empty()) return kInvalidInternId;
    return cells_[locate(text, hash_of(text))].id;
  }

  /// String for an id. Requires id < size().
  const std::string& name(InternId id) const { return *names_[id]; }

  std::size_t size() const { return names_.size(); }

  /// Make name(i) == names[i] for every i (`names` distinct), reusing the
  /// entries already held: a kept name is renumbered in place (its name()
  /// references stay valid), a dropped one is released, and a new one
  /// reuses storage released by an earlier call. Same observable state as
  /// interning `names` in order into an empty interner — the rt window
  /// renumbers its output names every tick this way. `names` may view
  /// this interner's own names.
  void assign(std::span<const std::string_view> names) {
    std::vector<std::uint64_t> hashes(names.size());
    std::vector<std::string*> next(names.size(), nullptr);
    std::vector<bool> kept(names_.size(), false);
    for (std::size_t i = 0; i < names.size(); ++i) {
      hashes[i] = hash_of(names[i]);
      if (cells_.empty()) continue;
      const InternId old = cells_[locate(names[i], hashes[i])].id;
      if (old != kInvalidInternId) {
        kept[old] = true;
        next[i] = names_[old];
      }
    }
    // New names take storage released before this call, which no view in
    // `names` can point into; this call's dropped names are released after.
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (next[i] == nullptr) next[i] = store(names[i]);
    }
    for (std::size_t old = 0; old < kept.size(); ++old) {
      if (!kept[old]) released_.push_back(names_[old]);
    }
    names_ = std::move(next);
    cells_.assign(table_size(names_.size()), Cell{});
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      std::size_t at = hashes[i] & mask;
      while (cells_[at].id != kInvalidInternId) at = (at + 1) & mask;
      cells_[at] = Cell{hashes[i], static_cast<InternId>(i)};
    }
  }

  /// Drop every name, keeping the table and the name storage: later
  /// interns reuse both (the rt window's recycled seal graph).
  void clear() {
    released_.insert(released_.end(), names_.begin(), names_.end());
    names_.clear();
    std::fill(cells_.begin(), cells_.end(), Cell{});
  }

  /// Pre-size for n strings (bulk restore paths).
  void reserve(std::size_t n) {
    names_.reserve(n);
    if (table_size(n) > cells_.size()) rehash(table_size(n));
  }

 private:
  /// A free cell has id kInvalidInternId.
  struct Cell {
    std::uint64_t hash = 0;
    InternId id = kInvalidInternId;
  };

  static std::uint64_t hash_of(std::string_view text) {
    return std::hash<std::string_view>{}(text);
  }

  /// Power-of-two cell count keeping n names at most half full.
  static std::size_t table_size(std::size_t n) {
    std::size_t size = 16;
    while (size < 2 * n) size *= 2;
    return size;
  }

  /// The cell holding `text`, or the free cell where it belongs.
  std::size_t locate(std::string_view text, std::uint64_t hash) const {
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
      const Cell& cell = cells_[at];
      if (cell.id == kInvalidInternId ||
          (cell.hash == hash && *names_[cell.id] == text)) {
        return at;
      }
    }
  }

  void grow() { rehash(cells_.empty() ? 16 : cells_.size() * 2); }

  void rehash(std::size_t size) {
    std::vector<Cell> old(size);
    old.swap(cells_);
    const std::size_t mask = size - 1;
    for (const Cell& cell : old) {
      if (cell.id == kInvalidInternId) continue;
      std::size_t at = cell.hash & mask;
      while (cells_[at].id != kInvalidInternId) at = (at + 1) & mask;
      cells_[at] = cell;
    }
  }

  /// Address-stable storage for a new name.
  std::string* store(std::string_view text) {
    if (released_.empty()) return &storage_.emplace_back(text);
    std::string* slot = released_.back();
    released_.pop_back();
    slot->assign(text);
    return slot;
  }

  std::vector<Cell> cells_;           ///< open addressing, power-of-two size
  std::vector<std::string*> names_;   ///< id -> name in storage_
  std::deque<std::string> storage_;   ///< names; elements never move
  std::vector<std::string*> released_;  ///< storage_ entries no id uses
};

}  // namespace eid::util
