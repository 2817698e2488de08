// String interning: the graph and feature layers work on dense uint32 ids
// for hosts and domains; strings only live at the log/simulator boundary.
// Lookups are heterogeneous (string_view probes an owned-string table
// without materializing a temporary std::string), so the per-event hot
// path never allocates for already-seen names.
#pragma once

#include <cstdint>
#include <functional>
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

/// Bidirectional string <-> dense-id map. Not thread-safe; one day path
/// builds on one thread.
class Interner {
 public:
  Interner() = default;
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;
  // The id -> name table points into the map's (address-stable) keys, so
  // copies must rebuild it against their own map.
  Interner(const Interner& other) : ids_(other.ids_) { rebuild_names(); }
  Interner& operator=(const Interner& other) {
    if (this != &other) {
      ids_ = other.ids_;
      rebuild_names();
    }
    return *this;
  }

  /// Id for the string, inserting it if new. Allocates only on first sight.
  InternId intern(std::string_view text) {
    if (const auto it = ids_.find(text); it != ids_.end()) return it->second;
    const InternId id = static_cast<InternId>(names_.size());
    const auto [it, inserted] = ids_.emplace(text, id);
    names_.push_back(&it->first);
    return id;
  }

  /// Id for the string if already interned, kInvalidInternId otherwise.
  /// Allocation-free.
  InternId find(std::string_view text) const {
    const auto it = ids_.find(text);
    return it == ids_.end() ? kInvalidInternId : it->second;
  }

  /// String for an id. Requires id < size().
  const std::string& name(InternId id) const { return *names_[id]; }

  std::size_t size() const { return names_.size(); }

  /// Pre-size for n strings (bulk restore paths).
  void reserve(std::size_t n) {
    ids_.reserve(n);
    names_.reserve(n);
  }

 private:
  void rebuild_names() {
    names_.assign(ids_.size(), nullptr);
    for (const auto& [text, id] : ids_) names_[id] = &text;
  }

  TransparentStringMap<InternId> ids_;
  std::vector<const std::string*> names_;  ///< id -> key in ids_
};

}  // namespace eid::util
