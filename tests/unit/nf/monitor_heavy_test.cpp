// Heavy-monitor statistics: count-min sketch estimates, per-port bytes and
// the payload byte histogram — and their baseline-vs-fast-path equivalence.
#include <stdexcept>

#include <gtest/gtest.h>

#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

TEST(MonitorHeavy, SketchEstimateUpperBoundsTrueBytes) {
  Monitor monitor{MonitorConfig::heavy(), "m"};
  std::uint64_t true_bytes = 0;
  for (int i = 0; i < 50; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(1), "abcdefgh");
    monitor.process(packet, nullptr);
    true_bytes += packet.size();
  }
  const std::uint64_t estimate = monitor.estimate_flow_bytes(tuple_n(1));
  EXPECT_GE(estimate, true_bytes) << "count-min never underestimates";
  // With one flow there are no collisions: exact.
  EXPECT_EQ(estimate, true_bytes);
}

TEST(MonitorHeavy, PerPortBytesAccumulate) {
  Monitor monitor{MonitorConfig::heavy(), "m"};
  net::Packet a = net::make_tcp_packet(tuple_n(1, 80), "x");
  net::Packet b = net::make_tcp_packet(tuple_n(2, 80), "yy");
  net::Packet c = net::make_tcp_packet(tuple_n(3, 443), "z");
  monitor.process(a, nullptr);
  monitor.process(b, nullptr);
  monitor.process(c, nullptr);
  EXPECT_EQ(monitor.port_bytes(80), a.size() + b.size());
  EXPECT_EQ(monitor.port_bytes(443), c.size());
  EXPECT_EQ(monitor.port_bytes(22), 0u);
}

TEST(MonitorHeavy, PayloadHistogramCountsBytes) {
  Monitor monitor{MonitorConfig::heavy(), "m"};
  net::Packet packet = net::make_tcp_packet(tuple_n(4), "aab");
  monitor.process(packet, nullptr);
  EXPECT_EQ(monitor.payload_histogram()[static_cast<unsigned char>('a')],
            2u);
  EXPECT_EQ(monitor.payload_histogram()[static_cast<unsigned char>('b')],
            1u);
}

TEST(MonitorHeavy, DisabledFeaturesReturnZero) {
  Monitor monitor;  // default config: everything off
  net::Packet packet = net::make_tcp_packet(tuple_n(5), "zz");
  monitor.process(packet, nullptr);
  EXPECT_EQ(monitor.estimate_flow_bytes(tuple_n(5)), 0u);
  EXPECT_EQ(monitor.port_bytes(80), 0u);
  EXPECT_TRUE(monitor.payload_histogram().empty());
}

TEST(MonitorHeavy, HistogramMakesStateFunctionReadClass) {
  Monitor monitor{MonitorConfig::heavy(), "m"};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 1};
  net::Packet packet = net::make_tcp_packet(tuple_n(6), "x");
  packet.set_fid(1);
  monitor.process(packet, &ctx);
  EXPECT_EQ(record.functions[0].access,
            core::PayloadAccess::kRead);
}

TEST(MonitorHeavy, FastPathStatsEqualBaselineStats) {
  const auto feed = [](Monitor& monitor, bool speedybox) {
    runtime::ServiceChain chain;
    chain.add_nf(&monitor);
    runtime::ChainRunner runner{
        chain, {platform::PlatformKind::kBess, speedybox}};
    for (std::uint32_t flow = 0; flow < 6; ++flow) {
      for (int pkt = 0; pkt < 9; ++pkt) {
        net::Packet packet = net::make_tcp_packet(
            tuple_n(flow, static_cast<std::uint16_t>(80 + flow % 3)),
            "heavy stats payload");
        runner.process_packet(packet);
      }
    }
  };

  Monitor baseline{MonitorConfig::heavy(), "baseline"};
  feed(baseline, false);
  Monitor speedy{MonitorConfig::heavy(), "speedy"};
  feed(speedy, true);

  EXPECT_EQ(baseline.total_bytes(), speedy.total_bytes());
  for (std::uint32_t flow = 0; flow < 6; ++flow) {
    EXPECT_EQ(baseline.estimate_flow_bytes(tuple_n(flow, 80 + flow % 3)),
              speedy.estimate_flow_bytes(tuple_n(flow, 80 + flow % 3)))
        << "flow " << flow;
  }
  EXPECT_EQ(baseline.payload_histogram(), speedy.payload_histogram());
  for (const std::uint16_t port : {80, 81, 82}) {
    EXPECT_EQ(baseline.port_bytes(port), speedy.port_bytes(port));
  }
}

// A recorded flow's sketch cells live in a fixed block of
// kMaxSketchDepth rows, so a deeper sketch is refused at construction.
TEST(MonitorHeavy, RefusesMoreSketchRowsThanAFlowsCellBlockHolds) {
  MonitorConfig config = MonitorConfig::heavy();
  config.sketch_depth = MonitorConfig::kMaxSketchDepth;
  EXPECT_NO_THROW(Monitor(config, "deepest"));
  config.sketch_depth = MonitorConfig::kMaxSketchDepth + 1;
  EXPECT_THROW(Monitor(config, "too-deep"), std::invalid_argument);
}

}  // namespace
}  // namespace speedybox::nf
