#include "nf/ip_filter.hpp"

#include <gtest/gtest.h>

#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

TEST(AclRule, DstPortMatch) {
  const AclRule rule = AclRule::drop_dst_port(22);
  net::FiveTuple tuple = tuple_n(1, 22);
  EXPECT_TRUE(rule.matches(tuple));
  tuple.dst_port = 23;
  EXPECT_FALSE(rule.matches(tuple));
}

TEST(AclRule, SrcIpExactMatch) {
  const AclRule rule = AclRule::drop_src_ip(net::Ipv4Addr{1, 2, 3, 4});
  net::FiveTuple tuple;
  tuple.src_ip = net::Ipv4Addr{1, 2, 3, 4};
  EXPECT_TRUE(rule.matches(tuple));
  tuple.src_ip = net::Ipv4Addr{1, 2, 3, 5};
  EXPECT_FALSE(rule.matches(tuple));
}

TEST(AclRule, PrefixMatch) {
  const AclRule rule = AclRule::drop_dst_prefix(net::Ipv4Addr{10, 7, 0, 0}, 16);
  net::FiveTuple tuple;
  tuple.dst_ip = net::Ipv4Addr{10, 7, 200, 1};
  EXPECT_TRUE(rule.matches(tuple));
  tuple.dst_ip = net::Ipv4Addr{10, 8, 0, 1};
  EXPECT_FALSE(rule.matches(tuple));
}

TEST(AclRule, ProtoFilter) {
  AclRule rule = AclRule::drop_dst_port(80);
  rule.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  net::FiveTuple tuple = tuple_n(1, 80);  // TCP
  EXPECT_FALSE(rule.matches(tuple));
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  EXPECT_TRUE(rule.matches(tuple));
}

TEST(AclRule, PortRanges) {
  AclRule rule;
  rule.dport_lo = 1000;
  rule.dport_hi = 2000;
  net::FiveTuple tuple = tuple_n(1, 999);
  EXPECT_FALSE(rule.matches(tuple));
  tuple.dst_port = 1000;
  EXPECT_TRUE(rule.matches(tuple));
  tuple.dst_port = 2000;
  EXPECT_TRUE(rule.matches(tuple));
  tuple.dst_port = 2001;
  EXPECT_FALSE(rule.matches(tuple));
}

TEST(IpFilter, DropsBlacklistedFlow) {
  IpFilter filter{{AclRule::drop_dst_port(80)}};
  net::Packet packet = net::make_tcp_packet(tuple_n(1, 80), "x");
  filter.process(packet, nullptr);
  EXPECT_TRUE(packet.dropped());
  EXPECT_EQ(filter.drops(), 1u);
}

TEST(IpFilter, ForwardsNonMatching) {
  IpFilter filter{{AclRule::drop_dst_port(22)}};
  net::Packet packet = net::make_tcp_packet(tuple_n(2, 80), "x");
  filter.process(packet, nullptr);
  EXPECT_FALSE(packet.dropped());
}

TEST(IpFilter, FirstMatchWins) {
  AclRule allow = AclRule::allow_all();
  allow.dport_lo = allow.dport_hi = 80;
  allow.drop = false;
  IpFilter filter{{allow, AclRule::drop_dst_port(80)}};
  net::Packet packet = net::make_tcp_packet(tuple_n(3, 80), "x");
  filter.process(packet, nullptr);
  EXPECT_FALSE(packet.dropped()) << "earlier allow must shadow later drop";
}

TEST(IpFilter, DefaultAllow) {
  IpFilter filter{{}};
  net::Packet packet = net::make_tcp_packet(tuple_n(4, 1234), "x");
  filter.process(packet, nullptr);
  EXPECT_FALSE(packet.dropped());
}

TEST(IpFilter, VerdictCachedPerFlow) {
  IpFilter filter{{AclRule::drop_dst_port(80)}};
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(5, 80), "x");
    filter.process(packet, nullptr);
    EXPECT_TRUE(packet.dropped());
  }
  EXPECT_EQ(filter.cached_flows(), 1u);
  EXPECT_EQ(filter.drops(), 3u);
}

TEST(IpFilter, RecordsDropOrForward) {
  IpFilter filter{{AclRule::drop_dst_port(80)}};
  core::FlowRecord dropped;
  core::SpeedyBoxContext drop_ctx{dropped, 0, 1};
  net::Packet bad = net::make_tcp_packet(tuple_n(6, 80), "x");
  bad.set_fid(1);
  filter.process(bad, &drop_ctx);
  EXPECT_EQ(dropped.header_actions[0].type, core::HeaderActionType::kDrop);

  core::FlowRecord forwarded;
  core::SpeedyBoxContext fwd_ctx{forwarded, 0, 2};
  net::Packet good = net::make_tcp_packet(tuple_n(7, 443), "x");
  good.set_fid(2);
  filter.process(good, &fwd_ctx);
  EXPECT_EQ(forwarded.header_actions[0].type,
            core::HeaderActionType::kForward);
}

TEST(IpFilter, CacheFreedOnFin) {
  IpFilter filter{{}};
  net::Packet open = net::make_tcp_packet(tuple_n(8, 80), "x");
  filter.process(open, nullptr);
  EXPECT_EQ(filter.cached_flows(), 1u);
  net::Packet fin = net::make_tcp_packet(
      tuple_n(8, 80), "", net::kTcpFlagFin | net::kTcpFlagAck);
  filter.process(fin, nullptr);
  EXPECT_EQ(filter.cached_flows(), 0u);
}

TEST(IpFilter, MalformedPacketDropped) {
  IpFilter filter{{}};
  net::Packet garbage{std::vector<std::uint8_t>(30, 0x42)};
  filter.process(garbage, nullptr);
  EXPECT_TRUE(garbage.dropped());
}

}  // namespace
}  // namespace speedybox::nf
