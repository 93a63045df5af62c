#include "nf/maglev_lb.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

std::vector<Backend> test_backends() {
  return {
      {"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
      {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true},
      {"b2", net::Ipv4Addr{10, 2, 0, 12}, 8002, true},
  };
}

TEST(MaglevLb, RewritesDestinationToBackend) {
  MaglevLb lb{test_backends(), 251};
  net::Packet packet = net::make_tcp_packet(tuple_n(1), "x");
  lb.process(packet, nullptr);

  const auto parsed = net::parse_packet(packet);
  const std::uint32_t dst_ip =
      net::get_field(packet, *parsed, net::HeaderField::kDstIp);
  const std::uint32_t dst_port =
      net::get_field(packet, *parsed, net::HeaderField::kDstPort);
  const auto backend = lb.backend_of(tuple_n(1));
  ASSERT_TRUE(backend.has_value());
  EXPECT_EQ(dst_ip, lb.backends()[*backend].ip.value);
  EXPECT_EQ(dst_port, lb.backends()[*backend].port);
}

TEST(MaglevLb, ConnectionStickiness) {
  MaglevLb lb{test_backends(), 251};
  const auto backend_for = [&lb](std::uint32_t flow) {
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "x");
    lb.process(packet, nullptr);
    return lb.backend_of(tuple_n(flow)).value();
  };
  const std::size_t first = backend_for(2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(backend_for(2), first);
  }
}

TEST(MaglevLb, SpreadsFlowsAcrossBackends) {
  MaglevLb lb{test_backends(), 251};
  std::vector<int> hits(3, 0);
  for (std::uint32_t flow = 0; flow < 300; ++flow) {
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "x");
    lb.process(packet, nullptr);
    ++hits[lb.backend_of(tuple_n(flow)).value()];
  }
  for (const int count : hits) {
    EXPECT_GT(count, 50) << "grossly unbalanced";
  }
}

TEST(MaglevLb, FailoverReroutesEstablishedFlow) {
  MaglevLb lb{test_backends(), 251};
  net::Packet first = net::make_tcp_packet(tuple_n(3), "x");
  lb.process(first, nullptr);
  const std::size_t original = lb.backend_of(tuple_n(3)).value();

  lb.fail_backend(original);
  net::Packet second = net::make_tcp_packet(tuple_n(3), "x");
  lb.process(second, nullptr);
  const std::size_t rerouted = lb.backend_of(tuple_n(3)).value();
  EXPECT_NE(rerouted, original);
  EXPECT_TRUE(lb.backends()[rerouted].healthy);
  EXPECT_EQ(lb.reroutes(), 1u);

  const auto parsed = net::parse_packet(second);
  EXPECT_EQ(net::get_field(second, *parsed, net::HeaderField::kDstIp),
            lb.backends()[rerouted].ip.value);
}

TEST(MaglevLb, HealedBackendReceivesNewFlows) {
  MaglevLb lb{test_backends(), 251};
  lb.fail_backend(0);
  lb.heal_backend(0);
  std::vector<int> hits(3, 0);
  for (std::uint32_t flow = 100; flow < 400; ++flow) {
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "x");
    lb.process(packet, nullptr);
    ++hits[lb.backend_of(tuple_n(flow)).value()];
  }
  EXPECT_GT(hits[0], 0);
}

TEST(MaglevLb, ChecksumsValidAfterRewrite) {
  MaglevLb lb{test_backends(), 251};
  net::Packet packet = net::make_tcp_packet(tuple_n(4), "payload");
  lb.process(packet, nullptr);
  const auto parsed = net::parse_packet(packet);
  EXPECT_TRUE(net::verify_ipv4_checksum(packet, parsed->l3_offset));
  EXPECT_TRUE(net::verify_l4_checksum(packet, *parsed));
}

TEST(MaglevLb, RecordsModifyActionsAndEvent) {
  MaglevLb lb{test_backends(), 251};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 77};

  net::Packet packet = net::make_tcp_packet(tuple_n(5), "x");
  packet.set_fid(77);
  lb.process(packet, &ctx);

  const core::FlowRecord* rule = &record;
  ASSERT_EQ(rule->header_actions.size(), 2u);
  EXPECT_EQ(rule->header_actions[0].field, net::HeaderField::kDstIp);
  EXPECT_EQ(rule->header_actions[1].field, net::HeaderField::kDstPort);
  EXPECT_FALSE(record.events.empty());
  ASSERT_EQ(rule->functions.size(), 1u);
  EXPECT_EQ(rule->functions[0].access, core::PayloadAccess::kIgnore);
}

TEST(MaglevLb, EventFiresOnlyWhenBackendUnhealthy) {
  MaglevLb lb{test_backends(), 251};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 88};
  net::Packet packet = net::make_tcp_packet(tuple_n(6), "x");
  packet.set_fid(88);
  lb.process(packet, &ctx);
  const std::size_t original = lb.backend_of(tuple_n(6)).value();

  ASSERT_EQ(record.conditions.size(), 1u);
  EXPECT_FALSE(record.conditions[0]());

  lb.fail_backend(original);
  ASSERT_TRUE(record.conditions[0]());
  const core::EventUpdate update = record.events[0].update();
  ASSERT_TRUE(update.header_actions.has_value());
  EXPECT_EQ(update.header_actions->size(), 2u);
  EXPECT_NE(lb.backend_of(tuple_n(6)).value(), original);
}

TEST(MaglevLb, TeardownReleasesTracking) {
  MaglevLb lb{test_backends(), 251};
  net::Packet open = net::make_tcp_packet(tuple_n(7), "x");
  lb.process(open, nullptr);
  EXPECT_EQ(lb.tracked_flows(), 1u);
  net::Packet fin = net::make_tcp_packet(
      tuple_n(7), "", net::kTcpFlagFin | net::kTcpFlagAck);
  lb.process(fin, nullptr);
  EXPECT_EQ(lb.tracked_flows(), 0u);
}

TEST(MaglevLb, ThrowsWithNoBackends) {
  EXPECT_THROW(MaglevLb({}, 251), std::invalid_argument);
}

TEST(MaglevLb, BytesAccounted) {
  MaglevLb lb{test_backends(), 251};
  net::Packet packet = net::make_tcp_packet(tuple_n(8), "12345");
  lb.process(packet, nullptr);
  const std::size_t backend = lb.backend_of(tuple_n(8)).value();
  EXPECT_EQ(lb.bytes_per_backend()[backend], packet.size());
}

}  // namespace
}  // namespace speedybox::nf
