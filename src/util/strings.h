// Small string utilities shared by parsers and the simulator.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace eid::util {

/// Split on a single-character delimiter into exactly `fields.size()`
/// pieces, empty ones included, without allocating: true and `fields`
/// filled with views into `text` when `text` holds exactly
/// `fields.size() - 1` delimiters, false otherwise (`fields` is then
/// unspecified). "" is one empty piece.
bool split_exact(std::string_view text, char delim,
                 std::span<std::string_view> fields);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// ASCII lower-casing (domain names and UA comparisons are case-insensitive).
std::string to_lower(std::string_view text);

/// Join pieces with a separator.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

}  // namespace eid::util
