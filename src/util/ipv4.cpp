#include "util/ipv4.h"

#include <cstdio>

namespace eid::util {

std::string format_ipv4(Ipv4 ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip.value >> 24) & 0xff,
                (ip.value >> 16) & 0xff, (ip.value >> 8) & 0xff, ip.value & 0xff);
  return buf;
}

std::optional<Ipv4> parse_ipv4(std::string_view text) {
  // One left-to-right scan: four dot-separated runs of 1-3 ASCII digits,
  // each at most 255, and nothing after the last.
  std::uint32_t value = 0;
  std::size_t i = 0;
  for (int octet_index = 0; octet_index < 4; ++octet_index) {
    if (octet_index > 0) {
      if (i == text.size() || text[i] != '.') return std::nullopt;
      ++i;
    }
    std::uint32_t octet = 0;
    std::size_t digits = 0;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
      if (++digits > 3) return std::nullopt;
      octet = octet * 10 + static_cast<std::uint32_t>(text[i] - '0');
    }
    if (digits == 0 || octet > 255) return std::nullopt;
    value = (value << 8) | octet;
  }
  if (i != text.size()) return std::nullopt;
  return Ipv4{value};
}

}  // namespace eid::util
