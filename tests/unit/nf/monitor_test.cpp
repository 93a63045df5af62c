#include "nf/monitor.hpp"

#include <gtest/gtest.h>

#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

TEST(Monitor, CountsPacketsAndBytes) {
  Monitor monitor;
  net::Packet a = net::make_tcp_packet(tuple_n(1), "aaaa");
  net::Packet b = net::make_tcp_packet(tuple_n(1), "bbbbbbbb");
  monitor.process(a, nullptr);
  monitor.process(b, nullptr);

  const FlowCounters* counters = monitor.counters_of(tuple_n(1));
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->packets, 2u);
  EXPECT_EQ(counters->bytes, a.size() + b.size());
}

TEST(Monitor, PerFlowIsolation) {
  Monitor monitor;
  net::Packet a = net::make_tcp_packet(tuple_n(1), "x");
  net::Packet b = net::make_tcp_packet(tuple_n(2), "x");
  monitor.process(a, nullptr);
  monitor.process(b, nullptr);
  EXPECT_EQ(monitor.flow_count(), 2u);
  ASSERT_NE(monitor.counters_of(tuple_n(1)), nullptr);
  ASSERT_NE(monitor.counters_of(tuple_n(2)), nullptr);
  EXPECT_EQ(monitor.counters_of(tuple_n(1))->packets, 1u);
  EXPECT_EQ(monitor.counters_of(tuple_n(2))->packets, 1u);
}

TEST(Monitor, NeverModifiesPacket) {
  Monitor monitor;
  net::Packet packet = net::make_tcp_packet(tuple_n(3), "payload");
  const std::vector<std::uint8_t> before{packet.bytes().begin(),
                                         packet.bytes().end()};
  monitor.process(packet, nullptr);
  EXPECT_FALSE(packet.dropped());
  EXPECT_TRUE(std::equal(packet.bytes().begin(), packet.bytes().end(),
                         before.begin(), before.end()));
}

TEST(Monitor, TotalsAggregate) {
  Monitor monitor;
  std::uint64_t bytes = 0;
  for (std::uint32_t flow = 0; flow < 4; ++flow) {
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "zz");
    monitor.process(packet, nullptr);
    bytes += packet.size();
  }
  EXPECT_EQ(monitor.total_packets(), 4u);
  EXPECT_EQ(monitor.total_bytes(), bytes);
}

TEST(Monitor, RecordsIgnoreClassStateFunction) {
  Monitor monitor;
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 5};
  net::Packet packet = net::make_tcp_packet(tuple_n(4), "x");
  packet.set_fid(5);
  monitor.process(packet, &ctx);

  const core::FlowRecord* rule = &record;
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->header_actions[0].type, core::HeaderActionType::kForward);
  ASSERT_EQ(rule->functions.size(), 1u);
  EXPECT_EQ(rule->functions[0].access, core::PayloadAccess::kIgnore);
}

TEST(Monitor, RecordedHandlerCountsSubsequentPackets) {
  Monitor monitor;
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 6};
  net::Packet initial = net::make_tcp_packet(tuple_n(5), "x");
  initial.set_fid(6);
  monitor.process(initial, &ctx);

  net::Packet subsequent = net::make_tcp_packet(tuple_n(5), "yy");
  const auto parsed = net::parse_packet(subsequent);
  record.handlers[0](subsequent, *parsed);
  ASSERT_NE(monitor.counters_of(tuple_n(5)), nullptr);
  EXPECT_EQ(monitor.counters_of(tuple_n(5))->packets, 2u);
}

TEST(Monitor, CountersSurviveFin) {
  // Counters are audit state and must NOT be dropped at flow teardown
  // (§VII-C-3 compares them after the run).
  Monitor monitor;
  net::Packet fin = net::make_tcp_packet(
      tuple_n(6), "x", net::kTcpFlagFin | net::kTcpFlagAck);
  monitor.process(fin, nullptr);
  EXPECT_NE(monitor.counters_of(tuple_n(6)), nullptr);
}

TEST(Monitor, ForEachFlowVisitsEveryFlowOnce) {
  Monitor monitor;
  for (std::uint32_t flow = 1; flow <= 3; ++flow) {
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "x");
    monitor.process(packet, nullptr);
  }
  std::size_t visited = 0;
  std::uint64_t packets = 0;
  monitor.for_each_flow(
      [&](const net::FiveTuple& tuple, const FlowCounters& counters) {
        ++visited;
        packets += counters.packets;
        EXPECT_NE(monitor.counters_of(tuple), nullptr);
      });
  EXPECT_EQ(visited, monitor.flow_count());
  EXPECT_EQ(packets, 3u);
}

}  // namespace
}  // namespace speedybox::nf
