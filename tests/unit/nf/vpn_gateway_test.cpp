#include "nf/vpn_gateway.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::same_bytes;
using speedybox::testing::tuple_n;

TEST(VpnGateway, EgressEncapsulates) {
  VpnGateway vpn{VpnMode::kEgress};
  net::Packet packet = net::make_tcp_packet(tuple_n(1), "secret");
  const std::size_t before = packet.size();
  vpn.process(packet, nullptr);
  EXPECT_EQ(packet.size(), before + net::kAhHeaderLen);
  EXPECT_TRUE(net::outer_ah_spi(packet).has_value());
  EXPECT_EQ(vpn.encapsulated(), 1u);

  const auto parsed = net::parse_packet(packet);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(net::verify_ipv4_checksum(packet, parsed->l3_offset));
}

TEST(VpnGateway, StableSpiPerFlow) {
  VpnGateway vpn{VpnMode::kEgress};
  net::Packet a = net::make_tcp_packet(tuple_n(2), "x");
  net::Packet b = net::make_tcp_packet(tuple_n(2), "y");
  vpn.process(a, nullptr);
  vpn.process(b, nullptr);
  EXPECT_EQ(net::outer_ah_spi(a), net::outer_ah_spi(b));
  EXPECT_EQ(vpn.active_associations(), 1u);
}

TEST(VpnGateway, DistinctFlowsDistinctSpis) {
  VpnGateway vpn{VpnMode::kEgress};
  net::Packet a = net::make_tcp_packet(tuple_n(3), "x");
  net::Packet b = net::make_tcp_packet(tuple_n(4), "x");
  vpn.process(a, nullptr);
  vpn.process(b, nullptr);
  EXPECT_NE(net::outer_ah_spi(a), net::outer_ah_spi(b));
}

TEST(VpnGateway, IngressDecapsulatesRoundTrip) {
  VpnGateway egress{VpnMode::kEgress, 0x1000, "vpn-out"};
  VpnGateway ingress{VpnMode::kIngress, 0x1000, "vpn-in"};
  net::Packet packet = net::make_tcp_packet(tuple_n(5), "tunnel me");
  const net::Packet original = packet;
  egress.process(packet, nullptr);
  ingress.process(packet, nullptr);
  EXPECT_TRUE(same_bytes(packet, original));
  EXPECT_EQ(ingress.decapsulated(), 1u);
}

TEST(VpnGateway, IngressRejectsPlainPackets) {
  VpnGateway ingress{VpnMode::kIngress};
  net::Packet packet = net::make_tcp_packet(tuple_n(6), "no tunnel");
  ingress.process(packet, nullptr);
  EXPECT_TRUE(packet.dropped());
  EXPECT_EQ(ingress.rejected(), 1u);
}

TEST(VpnGateway, RecordsEncapAction) {
  VpnGateway vpn{VpnMode::kEgress};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 5};
  net::Packet packet = net::make_tcp_packet(tuple_n(7), "x");
  packet.set_fid(5);
  vpn.process(packet, &ctx);
  ASSERT_EQ(record.header_actions.size(), 1u);
  EXPECT_EQ(record.header_actions[0].type,
            core::HeaderActionType::kEncap);
  EXPECT_EQ(record.header_actions[0].encap.kind, net::EncapKind::kAh);
}

TEST(VpnGateway, RecordsDecapAction) {
  VpnGateway egress{VpnMode::kEgress};
  VpnGateway ingress{VpnMode::kIngress};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 6};
  net::Packet packet = net::make_tcp_packet(tuple_n(8), "x");
  packet.set_fid(6);
  egress.process(packet, nullptr);
  ingress.process(packet, &ctx);
  EXPECT_EQ(record.header_actions[0].type,
            core::HeaderActionType::kDecap);
}

TEST(VpnGateway, TeardownFreesAssociation) {
  VpnGateway vpn{VpnMode::kEgress};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 7};
  net::Packet packet = net::make_tcp_packet(tuple_n(9), "x");
  packet.set_fid(7);
  vpn.process(packet, &ctx);
  EXPECT_EQ(vpn.active_associations(), 1u);
  record.run_teardown_hooks();
  EXPECT_EQ(vpn.active_associations(), 0u);
}

}  // namespace
}  // namespace speedybox::nf
