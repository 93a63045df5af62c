#include "nf/dos_prevention.hpp"

#include <gtest/gtest.h>

#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

net::Packet syn_packet(std::uint32_t flow) {
  return net::make_tcp_packet(tuple_n(flow), "", net::kTcpFlagSyn);
}

TEST(DosPrevention, CountsSynFlags) {
  DosPrevention dos{100};
  for (int i = 0; i < 5; ++i) {
    net::Packet packet = syn_packet(1);
    dos.process(packet, nullptr);
  }
  net::Packet ack = net::make_tcp_packet(tuple_n(1), "data");
  dos.process(ack, nullptr);
  EXPECT_EQ(dos.syn_count(tuple_n(1)), 5u);
}

TEST(DosPrevention, UnderThresholdForwards) {
  DosPrevention dos{3};
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = syn_packet(2);
    dos.process(packet, nullptr);
    EXPECT_FALSE(packet.dropped());
  }
}

TEST(DosPrevention, CheckThenCountSemantics) {
  // Threshold 3: packets 1-3 raise the counter to 3; packet 4 raises it to
  // 4 (counter>threshold still false at arrival: 3 > 3 is false), so packet
  // 4 passes and packet 5 is the first dropped — matching the Event Table's
  // evaluate-on-arrival semantics.
  DosPrevention dos{3};
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = syn_packet(3);
    dos.process(packet, nullptr);
    EXPECT_FALSE(packet.dropped()) << "packet " << i;
  }
  net::Packet fifth = syn_packet(3);
  dos.process(fifth, nullptr);
  EXPECT_TRUE(fifth.dropped());
  EXPECT_TRUE(dos.is_blacklisted(tuple_n(3)));
}

TEST(DosPrevention, BlacklistIsSticky) {
  DosPrevention dos{1};
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = syn_packet(4);
    dos.process(packet, nullptr);
  }
  // Even a non-SYN packet is dropped once blacklisted.
  net::Packet data = net::make_tcp_packet(tuple_n(4), "data");
  dos.process(data, nullptr);
  EXPECT_TRUE(data.dropped());
}

TEST(DosPrevention, FlowsIndependent) {
  DosPrevention dos{1};
  for (int i = 0; i < 5; ++i) {
    net::Packet packet = syn_packet(5);
    dos.process(packet, nullptr);
  }
  EXPECT_TRUE(dos.is_blacklisted(tuple_n(5)));
  net::Packet other = syn_packet(6);
  dos.process(other, nullptr);
  EXPECT_FALSE(other.dropped());
  EXPECT_FALSE(dos.is_blacklisted(tuple_n(6)));
}

TEST(DosPrevention, AppliesNormalActionWhenClean) {
  DosPrevention dos{100,
                    core::HeaderAction::modify(net::HeaderField::kTos, 0x20)};
  net::Packet packet = net::make_tcp_packet(tuple_n(7), "x");
  dos.process(packet, nullptr);
  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(net::get_field(packet, *parsed, net::HeaderField::kTos), 0x20u);
}

TEST(DosPrevention, RegistersEventAndStateFunction) {
  DosPrevention dos{2};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 15};
  net::Packet packet = syn_packet(8);
  packet.set_fid(15);
  dos.process(packet, &ctx);
  EXPECT_EQ(record.functions.size(), 1u);
  EXPECT_FALSE(record.events.empty());
}

TEST(DosPrevention, EventTriggersDropUpdateAtThreshold) {
  DosPrevention dos{2};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 16};
  net::Packet initial = syn_packet(9);
  initial.set_fid(16);
  dos.process(initial, &ctx);  // syn_count = 1

  // Simulate the fast path running the recorded SF twice more.
  const auto& sf = record.handlers[0];
  net::Packet more = syn_packet(9);
  const auto parsed = net::parse_packet(more);
  sf(more, *parsed);  // 2
  ASSERT_EQ(record.conditions.size(), 1u);
  EXPECT_FALSE(record.conditions[0]()) << "2 > 2 is false";

  sf(more, *parsed);  // 3
  ASSERT_TRUE(record.conditions[0]());
  const core::EventUpdate update = record.events[0].update();
  ASSERT_TRUE(update.header_actions.has_value());
  EXPECT_EQ(update.header_actions->at(0).type, core::HeaderActionType::kDrop);
  EXPECT_TRUE(dos.is_blacklisted(tuple_n(9)));
}

}  // namespace
}  // namespace speedybox::nf
