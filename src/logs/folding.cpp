#include "logs/folding.h"

#include <array>

namespace eid::logs {
namespace {

// A deliberately small public-suffix sample: enough for realistic folding of
// enterprise traffic without shipping the full PSL. Checked against the last
// two labels of a name.
constexpr std::array<std::string_view, 12> kTwoLabelSuffixes = {
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au",
    "co.jp", "com.br", "com.cn", "co.in", "co.kr", "com.mx",
};

constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII case-insensitive equality against an already-lowercase `lower`.
bool equals_lowercase(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (ascii_lower(text[i]) != lower[i]) return false;
  }
  return true;
}

}  // namespace

bool has_two_label_public_suffix(std::string_view domain) {
  // The last two labels are everything after the second-to-last dot.
  const std::size_t last_dot = domain.rfind('.');
  if (last_dot == std::string_view::npos) return false;
  const std::size_t prev_dot =
      last_dot == 0 ? std::string_view::npos : domain.rfind('.', last_dot - 1);
  const std::string_view tail =
      prev_dot == std::string_view::npos ? domain : domain.substr(prev_dot + 1);
  for (const auto suffix : kTwoLabelSuffixes) {
    if (equals_lowercase(tail, suffix)) return true;
  }
  return false;
}

void fold_domain_into(std::string_view domain, FoldLevel level,
                      std::string& out) {
  // Strip root-label dots entirely so degenerate inputs (".", "..") fold
  // to the empty string and folding stays idempotent.
  while (!domain.empty() && domain.back() == '.') domain.remove_suffix(1);
  while (!domain.empty() && domain.front() == '.') domain.remove_prefix(1);
  std::size_t keep = static_cast<std::size_t>(level);
  if (has_two_label_public_suffix(domain)) ++keep;
  // The kept labels follow the keep-th dot from the right; a name with
  // fewer dots than that is kept whole.
  std::string_view tail = domain;
  std::size_t search_end = domain.size();
  for (std::size_t k = 0; k < keep; ++k) {
    const std::size_t dot =
        search_end == 0 ? std::string_view::npos : domain.rfind('.', search_end - 1);
    if (dot == std::string_view::npos) {
      tail = domain;
      break;
    }
    tail = domain.substr(dot + 1);
    search_end = dot;
  }
  // Empty labels at the front of the kept tail leave no dot behind.
  while (!tail.empty() && tail.front() == '.') tail.remove_prefix(1);
  out.assign(tail);
  for (char& c : out) c = ascii_lower(c);
}

std::string fold_domain(std::string_view domain, FoldLevel level) {
  std::string out;
  fold_domain_into(domain, level, out);
  return out;
}

}  // namespace eid::logs
