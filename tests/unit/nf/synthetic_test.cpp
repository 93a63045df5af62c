#include "nf/synthetic_nf.hpp"

#include <gtest/gtest.h>

#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

TEST(SyntheticNf, ReadWorkIsDeterministic) {
  SyntheticNfConfig config;
  config.access = core::PayloadAccess::kRead;
  SyntheticNf a{config, "a"};
  SyntheticNf b{config, "b"};
  for (int i = 0; i < 5; ++i) {
    net::Packet pa = net::make_tcp_packet(tuple_n(1), "same payload");
    net::Packet pb = net::make_tcp_packet(tuple_n(1), "same payload");
    a.process(pa, nullptr);
    b.process(pb, nullptr);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), 0u);
}

TEST(SyntheticNf, ReadDoesNotModifyPacket) {
  SyntheticNfConfig config;
  config.access = core::PayloadAccess::kRead;
  SyntheticNf nf{config};
  net::Packet packet = net::make_tcp_packet(tuple_n(2), "payload");
  const std::vector<std::uint8_t> before{packet.bytes().begin(),
                                         packet.bytes().end()};
  nf.process(packet, nullptr);
  EXPECT_TRUE(std::equal(packet.bytes().begin(), packet.bytes().end(),
                         before.begin(), before.end()));
}

TEST(SyntheticNf, WriteModifiesPayloadDeterministically) {
  SyntheticNfConfig config;
  config.access = core::PayloadAccess::kWrite;
  config.work_iterations = 1;
  SyntheticNf nf1{config};
  SyntheticNf nf2{config};
  net::Packet p1 = net::make_tcp_packet(tuple_n(3), "mutate me");
  net::Packet p2 = net::make_tcp_packet(tuple_n(3), "mutate me");
  nf1.process(p1, nullptr);
  nf2.process(p2, nullptr);
  EXPECT_TRUE(speedybox::testing::same_bytes(p1, p2));

  net::Packet untouched = net::make_tcp_packet(tuple_n(3), "mutate me");
  EXPECT_FALSE(speedybox::testing::same_bytes(p1, untouched));
}

TEST(SyntheticNf, IgnoreLeavesPayloadAlone) {
  SyntheticNfConfig config;
  config.access = core::PayloadAccess::kIgnore;
  SyntheticNf nf{config};
  net::Packet packet = net::make_tcp_packet(tuple_n(4), "untouched");
  const std::vector<std::uint8_t> before{packet.bytes().begin(),
                                         packet.bytes().end()};
  nf.process(packet, nullptr);
  EXPECT_TRUE(std::equal(packet.bytes().begin(), packet.bytes().end(),
                         before.begin(), before.end()));
  EXPECT_NE(nf.digest(), 0u);
}

TEST(SyntheticNf, WorkScalesWithIterations) {
  // More iterations -> more digest evolution; weak but deterministic signal
  // that the knob is wired through.
  SyntheticNfConfig small;
  small.work_iterations = 1;
  SyntheticNfConfig large;
  large.work_iterations = 64;
  SyntheticNf nf_small{small};
  SyntheticNf nf_large{large};
  net::Packet a = net::make_tcp_packet(tuple_n(5), "zz");
  net::Packet b = net::make_tcp_packet(tuple_n(5), "zz");
  nf_small.process(a, nullptr);
  nf_large.process(b, nullptr);
  EXPECT_NE(nf_small.digest(), nf_large.digest());
}

TEST(SyntheticNf, RecordsConfiguredAccessClass) {
  SyntheticNfConfig config;
  config.access = core::PayloadAccess::kWrite;
  SyntheticNf nf{config};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 3};
  net::Packet packet = net::make_tcp_packet(tuple_n(6), "x");
  packet.set_fid(3);
  nf.process(packet, &ctx);
  EXPECT_EQ(record.functions[0].access,
            core::PayloadAccess::kWrite);
}

TEST(SyntheticNf, OptionalHeaderActionAppliedAndRecorded) {
  SyntheticNfConfig config;
  config.header_action =
      core::HeaderAction::modify(net::HeaderField::kTos, 0x10);
  SyntheticNf nf{config};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 4};
  net::Packet packet = net::make_tcp_packet(tuple_n(7), "x");
  packet.set_fid(4);
  nf.process(packet, &ctx);
  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(net::get_field(packet, *parsed, net::HeaderField::kTos), 0x10u);
  EXPECT_EQ(record.header_actions[0].type,
            core::HeaderActionType::kModify);
}

}  // namespace
}  // namespace speedybox::nf
