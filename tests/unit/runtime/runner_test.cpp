#include "runtime/runner.hpp"

#include <gtest/gtest.h>

#include "nf/ip_filter.hpp"
#include "nf/monitor.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::tuple_n;

RunConfig bess_original() {
  return {platform::PlatformKind::kBess, /*speedybox=*/false, false};
}
RunConfig bess_speedybox() {
  return {platform::PlatformKind::kBess, /*speedybox=*/true, false};
}

TEST(Runner, OriginalModeProcessesThroughAllNfs) {
  ServiceChain chain;
  auto& m1 = chain.emplace_nf<nf::Monitor>("m1");
  auto& m2 = chain.emplace_nf<nf::Monitor>("m2");
  ChainRunner runner{chain, bess_original()};

  net::Packet packet = net::make_tcp_packet(tuple_n(1), "x");
  const PacketOutcome outcome = runner.process_packet(packet);
  EXPECT_FALSE(outcome.dropped);
  EXPECT_TRUE(outcome.initial);
  EXPECT_GT(outcome.work_cycles, 0u);
  EXPECT_GE(outcome.latency_cycles, outcome.work_cycles);
  EXPECT_EQ(m1.packets_processed(), 1u);
  EXPECT_EQ(m2.packets_processed(), 1u);
}

TEST(Runner, OriginalModeTagsInitVsSub) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, bess_original()};
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(2), "x");
    runner.process_packet(packet);
  }
  EXPECT_EQ(runner.stats().work_cycles_initial.count(), 1u);
  EXPECT_EQ(runner.stats().work_cycles_subsequent.count(), 3u);
}

TEST(Runner, SpeedyBoxInitialRecordsThenSubsequentHitsFastPath) {
  ServiceChain chain;
  auto& monitor = chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, bess_speedybox()};

  net::Packet first = net::make_tcp_packet(tuple_n(3), "x");
  const PacketOutcome o1 = runner.process_packet(first);
  EXPECT_TRUE(o1.initial);
  EXPECT_EQ(chain.global_mat().size(), 1u);
  EXPECT_EQ(monitor.packets_processed(), 1u);

  net::Packet second = net::make_tcp_packet(tuple_n(3), "y");
  const PacketOutcome o2 = runner.process_packet(second);
  EXPECT_FALSE(o2.initial);
  // Fast path: the NF's process() is NOT called again, but its recorded
  // state function keeps the counters fresh.
  EXPECT_EQ(monitor.packets_processed(), 1u);
  ASSERT_NE(monitor.counters_of(tuple_n(3)), nullptr);
  EXPECT_EQ(monitor.counters_of(tuple_n(3))->packets, 2u);
}

TEST(Runner, SpeedyBoxDropOnFastPath) {
  ServiceChain chain;
  chain.emplace_nf<nf::IpFilter>(
      std::vector<nf::AclRule>{nf::AclRule::drop_dst_port(80)});
  ChainRunner runner{chain, bess_speedybox()};

  net::Packet first = net::make_tcp_packet(tuple_n(4, 80), "x");
  EXPECT_TRUE(runner.process_packet(first).dropped);
  net::Packet second = net::make_tcp_packet(tuple_n(4, 80), "x");
  const PacketOutcome outcome = runner.process_packet(second);
  EXPECT_TRUE(outcome.dropped);
  EXPECT_EQ(runner.stats().drops, 2u);
}

TEST(Runner, TeardownErasesRulesAndFid) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, bess_speedybox()};

  net::Packet open = net::make_tcp_packet(tuple_n(5), "x");
  runner.process_packet(open);
  EXPECT_EQ(chain.global_mat().size(), 1u);

  net::Packet fin = net::make_tcp_packet(
      tuple_n(5), "", net::kTcpFlagFin | net::kTcpFlagAck);
  runner.process_packet(fin);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
  EXPECT_EQ(chain.local_mat(0).size(), 0u);
}

TEST(Runner, MalformedPacketDroppedInSpeedyBoxMode) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, bess_speedybox()};
  net::Packet garbage{std::vector<std::uint8_t>(16, 1)};
  EXPECT_TRUE(runner.process_packet(garbage).dropped);
}

TEST(Runner, RunWorkloadAggregatesStats) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, bess_speedybox()};
  const trace::Workload workload = trace::make_uniform_workload(5, 8, 64);
  const RunStats& stats = runner.run_workload(workload);
  EXPECT_EQ(stats.packets, 40u);
  EXPECT_EQ(stats.latency_us_initial.count(), 5u);
  EXPECT_EQ(stats.latency_us_subsequent.count(), 35u);
  EXPECT_EQ(runner.flow_time_us().count(), 5u);
  EXPECT_GT(runner.flow_time_us().mean(), 0.0);
}

TEST(Runner, PerNfAttributionInOriginalMode) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>("a");
  chain.emplace_nf<nf::Monitor>("b");
  RunConfig config = bess_original();
  config.measure_per_nf = true;
  ChainRunner runner{chain, config};
  const trace::Workload workload = trace::make_uniform_workload(2, 10, 64);
  runner.run_workload(workload);
  const std::vector<double> means = runner.stats().per_nf_mean_cycles();
  ASSERT_EQ(means.size(), 2u);
  EXPECT_GT(means[0], 0.0);
  EXPECT_GT(means[1], 0.0);
}

TEST(Runner, RateModelProducesFiniteRates) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  for (const auto platform :
       {platform::PlatformKind::kBess, platform::PlatformKind::kOnvm}) {
    ServiceChain fresh;
    fresh.emplace_nf<nf::Monitor>();
    ChainRunner runner{fresh, {platform, false, false}};
    runner.run_workload(trace::make_uniform_workload(3, 20, 64));
    const double mpps = runner.stats().rate_mpps(platform);
    EXPECT_GT(mpps, 0.0);
    EXPECT_LT(mpps, 10000.0);
  }
}

TEST(Runner, OnvmLatencyExceedsBessLatency) {
  // Same chain + workload: ONVM pays a ring hop per NF, BESS a cheap module
  // hop, so modeled ONVM latency must be strictly higher.
  const trace::Workload workload = trace::make_uniform_workload(3, 30, 64);
  double bess_latency, onvm_latency;
  {
    ServiceChain chain;
    chain.emplace_nf<nf::Monitor>();
    chain.emplace_nf<nf::Monitor>("m2");
    ChainRunner runner{chain, bess_original()};
    bess_latency =
        runner.run_workload(workload).latency_us_subsequent.percentile(50);
  }
  {
    ServiceChain chain;
    chain.emplace_nf<nf::Monitor>();
    chain.emplace_nf<nf::Monitor>("m2");
    ChainRunner runner{chain,
                       {platform::PlatformKind::kOnvm, false, false}};
    onvm_latency =
        runner.run_workload(workload).latency_us_subsequent.percentile(50);
  }
  EXPECT_GT(onvm_latency, bess_latency);
}

TEST(Runner, EventsCountedInStats) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, bess_speedybox()};
  net::Packet first = net::make_tcp_packet(tuple_n(6), "x");
  runner.process_packet(first);

  // Register a hair-trigger event directly.
  core::EventRegistration event;
  event.fid = first.fid();
  event.nf_index = 0;
  event.name = "test";
  event.condition = [] { return true; };
  event.update = [] { return core::EventUpdate{}; };
  chain.global_mat().event_table().register_event(std::move(event));
  chain.global_mat().consolidate_flow(first.fid());  // refresh event flag

  net::Packet second = net::make_tcp_packet(tuple_n(6), "x");
  const PacketOutcome outcome = runner.process_packet(second);
  EXPECT_EQ(outcome.events_triggered, 1u);
  EXPECT_EQ(runner.stats().events_triggered, 1u);
}

}  // namespace
}  // namespace speedybox::runtime
