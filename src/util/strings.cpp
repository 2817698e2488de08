#include "util/strings.h"

#include <cctype>

namespace eid::util {

bool split_exact(std::string_view text, char delim,
                 std::span<std::string_view> fields) {
  if (fields.empty()) return false;  // any text is at least one piece
  const std::size_t last = fields.size() - 1;
  for (std::size_t i = 0; i < last; ++i) {
    const std::size_t at = text.find(delim);
    if (at == std::string_view::npos) return false;
    fields[i] = text.substr(0, at);
    text.remove_prefix(at + 1);
  }
  if (text.find(delim) != std::string_view::npos) return false;
  fields[last] = text;
  return true;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

}  // namespace eid::util
