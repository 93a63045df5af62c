#include "nf/mazu_nat.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

MazuNatConfig small_pool() {
  MazuNatConfig config;
  config.port_lo = 10000;
  config.port_hi = 10003;  // 4 ports for exhaustion tests
  return config;
}

TEST(MazuNat, TranslatesOutboundSource) {
  MazuNat nat;
  net::Packet packet = net::make_tcp_packet(tuple_n(1), "x");
  nat.process(packet, nullptr);

  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(net::get_field(packet, *parsed, net::HeaderField::kSrcIp),
            MazuNatConfig{}.external_ip.value);
  const auto mapping = nat.mapping_of(tuple_n(1));
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(net::get_field(packet, *parsed, net::HeaderField::kSrcPort),
            *mapping);
}

TEST(MazuNat, StableMappingPerFlow) {
  MazuNat nat;
  net::Packet a = net::make_tcp_packet(tuple_n(2), "x");
  net::Packet b = net::make_tcp_packet(tuple_n(2), "y");
  nat.process(a, nullptr);
  nat.process(b, nullptr);
  const auto pa = net::parse_packet(a);
  const auto pb = net::parse_packet(b);
  EXPECT_EQ(net::get_field(a, *pa, net::HeaderField::kSrcPort),
            net::get_field(b, *pb, net::HeaderField::kSrcPort));
  EXPECT_EQ(nat.active_mappings(), 1u);
}

TEST(MazuNat, DistinctFlowsDistinctPorts) {
  MazuNat nat;
  net::Packet a = net::make_tcp_packet(tuple_n(3), "x");
  net::Packet b = net::make_tcp_packet(tuple_n(4), "x");
  nat.process(a, nullptr);
  nat.process(b, nullptr);
  EXPECT_NE(nat.mapping_of(tuple_n(3)), nat.mapping_of(tuple_n(4)));
}

TEST(MazuNat, InboundReverseTranslation) {
  MazuNat nat;
  net::Packet outbound = net::make_tcp_packet(tuple_n(5), "req");
  nat.process(outbound, nullptr);
  const std::uint16_t ext_port = nat.mapping_of(tuple_n(5)).value();

  // Reply addressed to the external IP/port.
  net::FiveTuple reply;
  reply.src_ip = tuple_n(5).dst_ip;
  reply.src_port = tuple_n(5).dst_port;
  reply.dst_ip = MazuNatConfig{}.external_ip;
  reply.dst_port = ext_port;
  reply.proto = tuple_n(5).proto;
  net::Packet inbound = net::make_tcp_packet(reply, "resp");
  nat.process(inbound, nullptr);

  const auto parsed = net::parse_packet(inbound);
  EXPECT_EQ(net::get_field(inbound, *parsed, net::HeaderField::kDstIp),
            tuple_n(5).src_ip.value);
  EXPECT_EQ(net::get_field(inbound, *parsed, net::HeaderField::kDstPort),
            tuple_n(5).src_port);
}

TEST(MazuNat, UnsolicitedInboundDropped) {
  MazuNat nat;
  net::FiveTuple unsolicited;
  unsolicited.src_ip = net::Ipv4Addr{8, 8, 8, 8};
  unsolicited.src_port = 53;
  unsolicited.dst_ip = MazuNatConfig{}.external_ip;
  unsolicited.dst_port = 4444;
  unsolicited.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  net::Packet packet = net::make_tcp_packet(unsolicited, "scan");
  nat.process(packet, nullptr);
  EXPECT_TRUE(packet.dropped());
}

TEST(MazuNat, NonInternalNonExternalForwardedUntouched) {
  MazuNat nat;
  net::FiveTuple transit;
  transit.src_ip = net::Ipv4Addr{8, 8, 4, 4};
  transit.src_port = 1234;
  transit.dst_ip = net::Ipv4Addr{9, 9, 9, 9};
  transit.dst_port = 80;
  transit.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  net::Packet packet = net::make_tcp_packet(transit, "pass");
  const std::vector<std::uint8_t> before{packet.bytes().begin(),
                                         packet.bytes().end()};
  nat.process(packet, nullptr);
  EXPECT_FALSE(packet.dropped());
  EXPECT_TRUE(std::equal(packet.bytes().begin(), packet.bytes().end(),
                         before.begin(), before.end()));
}

TEST(MazuNat, PortReleaseOnFinAndReuse) {
  MazuNat nat{small_pool()};
  for (std::uint32_t flow = 0; flow < 20; ++flow) {
    net::Packet open = net::make_tcp_packet(tuple_n(flow), "x");
    nat.process(open, nullptr);
    ASSERT_EQ(nat.active_mappings(), 1u);
    net::Packet fin = net::make_tcp_packet(
        tuple_n(flow), "", net::kTcpFlagFin | net::kTcpFlagAck);
    nat.process(fin, nullptr);
    ASSERT_EQ(nat.active_mappings(), 0u) << "flow " << flow;
  }
}

TEST(MazuNat, PortPoolExhaustionThrows) {
  MazuNat nat{small_pool()};
  for (std::uint32_t flow = 0; flow < 4; ++flow) {
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "x");
    nat.process(packet, nullptr);
  }
  net::Packet fifth = net::make_tcp_packet(tuple_n(99), "x");
  EXPECT_THROW(nat.process(fifth, nullptr), std::runtime_error);
}

TEST(MazuNat, ChecksumsValidAfterTranslation) {
  MazuNat nat;
  net::Packet packet = net::make_tcp_packet(tuple_n(6), "payload");
  nat.process(packet, nullptr);
  const auto parsed = net::parse_packet(packet);
  EXPECT_TRUE(net::verify_ipv4_checksum(packet, parsed->l3_offset));
  EXPECT_TRUE(net::verify_l4_checksum(packet, *parsed));
}

TEST(MazuNat, RecordsTwoModifyActions) {
  MazuNat nat;
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 9};
  net::Packet packet = net::make_tcp_packet(tuple_n(7), "x");
  packet.set_fid(9);
  nat.process(packet, &ctx);

  const core::FlowRecord* rule = &record;
  ASSERT_NE(rule, nullptr);
  ASSERT_EQ(rule->header_actions.size(), 2u);
  EXPECT_EQ(rule->header_actions[0].field, net::HeaderField::kSrcIp);
  EXPECT_EQ(rule->header_actions[1].field, net::HeaderField::kSrcPort);
}

TEST(MazuNat, TeardownHookReleasesMapping) {
  MazuNat nat;
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 10};
  net::Packet packet = net::make_tcp_packet(tuple_n(8), "x");
  packet.set_fid(10);
  nat.process(packet, &ctx);
  EXPECT_EQ(nat.active_mappings(), 1u);
  record.run_teardown_hooks();
  EXPECT_EQ(nat.active_mappings(), 0u);
}

TEST(MazuNat, RejectsEmptyPortRange) {
  MazuNatConfig config;
  config.port_lo = 2000;
  config.port_hi = 1000;
  EXPECT_THROW(MazuNat{config}, std::invalid_argument);
}

}  // namespace
}  // namespace speedybox::nf
