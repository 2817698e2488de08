#include "util/ipv4.h"

#include <gtest/gtest.h>

namespace eid::util {
namespace {

TEST(Ipv4Test, FormatAndParseRoundTrip) {
  const Ipv4 ip = Ipv4::from_octets(192, 168, 1, 42);
  EXPECT_EQ(format_ipv4(ip), "192.168.1.42");
  const auto parsed = parse_ipv4("192.168.1.42");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ip);
}

TEST(Ipv4Test, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_ipv4("").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5").has_value());
  EXPECT_FALSE(parse_ipv4("256.1.1.1").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.x").has_value());
  EXPECT_FALSE(parse_ipv4("a.b.c.d").has_value());
  EXPECT_FALSE(parse_ipv4("1..2.3").has_value());
  EXPECT_FALSE(parse_ipv4("1234.1.1.1").has_value());   // 4-digit octet
  EXPECT_FALSE(parse_ipv4("1.2.3.0255").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.4.").has_value());
  EXPECT_FALSE(parse_ipv4(".1.2.3.4").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.-4").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3. 4").has_value());
}

TEST(Ipv4Test, ParseAcceptsLeadingZeros) {
  EXPECT_EQ(parse_ipv4("010.001.000.009"), Ipv4::from_octets(10, 1, 0, 9));
  EXPECT_EQ(parse_ipv4("1.2.3.255"), Ipv4::from_octets(1, 2, 3, 255));
}

TEST(Ipv4Test, ParseBoundaries) {
  EXPECT_TRUE(parse_ipv4("0.0.0.0").has_value());
  EXPECT_TRUE(parse_ipv4("255.255.255.255").has_value());
}

TEST(Ipv4Test, SubnetRelations) {
  const Ipv4 a = Ipv4::from_octets(10, 20, 30, 1);
  const Ipv4 b = Ipv4::from_octets(10, 20, 30, 200);
  const Ipv4 c = Ipv4::from_octets(10, 20, 99, 1);
  const Ipv4 d = Ipv4::from_octets(10, 99, 30, 1);
  EXPECT_TRUE(same_subnet24(a, b));
  EXPECT_TRUE(same_subnet16(a, b));
  EXPECT_FALSE(same_subnet24(a, c));
  EXPECT_TRUE(same_subnet16(a, c));
  EXPECT_FALSE(same_subnet24(a, d));
  EXPECT_FALSE(same_subnet16(a, d));
}

TEST(Ipv4Test, Subnet24ImpliesSubnet16) {
  // Property: /24 co-location always implies /16 co-location.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const Ipv4 a{i * 2654435761u};
    const Ipv4 b{(i * 2654435761u) ^ 0xffu};
    if (same_subnet24(a, b)) EXPECT_TRUE(same_subnet16(a, b));
  }
}

TEST(Ipv4Test, PrivateRanges) {
  EXPECT_TRUE(is_private_ipv4(Ipv4::from_octets(10, 1, 2, 3)));
  EXPECT_TRUE(is_private_ipv4(Ipv4::from_octets(172, 16, 0, 1)));
  EXPECT_TRUE(is_private_ipv4(Ipv4::from_octets(172, 31, 255, 1)));
  EXPECT_TRUE(is_private_ipv4(Ipv4::from_octets(192, 168, 10, 10)));
  EXPECT_FALSE(is_private_ipv4(Ipv4::from_octets(172, 15, 0, 1)));
  EXPECT_FALSE(is_private_ipv4(Ipv4::from_octets(172, 32, 0, 1)));
  EXPECT_FALSE(is_private_ipv4(Ipv4::from_octets(8, 8, 8, 8)));
  EXPECT_FALSE(is_private_ipv4(Ipv4::from_octets(193, 168, 1, 1)));
}

}  // namespace
}  // namespace eid::util
