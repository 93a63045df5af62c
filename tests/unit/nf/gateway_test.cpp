#include "nf/gateway.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

std::vector<TrafficClass> voice_video_classes() {
  return {
      {5060, 5061, 46},  // SIP -> EF
      {8000, 8099, 34},  // media -> AF41
  };
}

TEST(Gateway, DecrementsTtl) {
  Gateway gw{voice_video_classes()};
  net::Packet packet = net::make_tcp_packet(tuple_n(1), "x");  // TTL 64
  gw.process(packet, nullptr);
  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(net::get_field(packet, *parsed, net::HeaderField::kTtl), 63u);
  EXPECT_TRUE(net::verify_ipv4_checksum(packet, parsed->l3_offset));
  EXPECT_EQ(gw.routed(), 1u);
}

TEST(Gateway, StampsDscpByPort) {
  Gateway gw{voice_video_classes()};
  net::Packet sip = net::make_tcp_packet(tuple_n(2, 5060), "INVITE");
  gw.process(sip, nullptr);
  const auto parsed = net::parse_packet(sip);
  EXPECT_EQ(net::get_field(sip, *parsed, net::HeaderField::kTos),
            46u << 2);
}

TEST(Gateway, UnmatchedFlowsBestEffort) {
  Gateway gw{voice_video_classes()};
  net::Packet web = net::make_tcp_packet(tuple_n(3, 443), "x");
  gw.process(web, nullptr);
  const auto parsed = net::parse_packet(web);
  EXPECT_EQ(net::get_field(web, *parsed, net::HeaderField::kTos), 0u);
}

TEST(Gateway, DropsExpiredTtl) {
  Gateway gw{{}};
  net::PacketSpec spec;
  spec.tuple = tuple_n(4);
  spec.ttl = 1;
  net::Packet packet = net::build_packet(spec);
  gw.process(packet, nullptr);
  EXPECT_TRUE(packet.dropped());
  EXPECT_EQ(gw.ttl_expired(), 1u);
}

TEST(Gateway, RecordsTwoModifies) {
  Gateway gw{voice_video_classes()};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 3};
  net::Packet packet = net::make_tcp_packet(tuple_n(5, 5060), "x");
  packet.set_fid(3);
  gw.process(packet, &ctx);
  ASSERT_EQ(record.header_actions.size(), 2u);
  EXPECT_EQ(record.header_actions[0].field, net::HeaderField::kTtl);
  EXPECT_EQ(record.header_actions[1].field, net::HeaderField::kTos);
}

TEST(Gateway, RecordsDropOnExpiredTtl) {
  Gateway gw{{}};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 4};
  net::PacketSpec spec;
  spec.tuple = tuple_n(6);
  spec.ttl = 1;
  net::Packet packet = net::build_packet(spec);
  packet.set_fid(4);
  gw.process(packet, &ctx);
  EXPECT_EQ(record.header_actions[0].type,
            core::HeaderActionType::kDrop);
}

TEST(Gateway, FirstMatchingClassWins) {
  Gateway gw{{{5000, 6000, 10}, {5060, 5061, 46}}};
  net::Packet packet = net::make_tcp_packet(tuple_n(7, 5060), "x");
  gw.process(packet, nullptr);
  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(net::get_field(packet, *parsed, net::HeaderField::kTos),
            10u << 2);
}

}  // namespace
}  // namespace speedybox::nf
