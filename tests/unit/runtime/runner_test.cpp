#include "runtime/runner.hpp"

#include <gtest/gtest.h>

#include "nf/ip_filter.hpp"
#include "nf/monitor.hpp"
#include "nf/synthetic_nf.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::modeled;
using speedybox::testing::tuple_n;

// The runner's tests read modeled values: the cycle model is on.
RunConfig bess_original() {
  return modeled({platform::PlatformKind::kBess, /*speedybox=*/false});
}
RunConfig bess_speedybox() {
  return modeled({platform::PlatformKind::kBess, /*speedybox=*/true});
}

TEST(Runner, BatchPrepTimedOncePerSpeedyBoxBatch) {
  // 600 packets at batch 32: 19 batches, each with one batch_prep_cycles
  // sample (the pre-pass plus the warm pass) beside its occupancy sample.
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  chain.emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{});
  RunConfig config{platform::PlatformKind::kBess, /*speedybox=*/true};
  config.batch_size = 32;
  ChainRunner runner{chain, config};
  telemetry::Registry registry;
  runner.attach_telemetry(&registry, "runner");
  runner.run(trace::make_uniform_workload(120, 5, 64));

  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  std::uint64_t prep = 0;
  std::uint64_t batches = 0;
  for (const auto& [name, histogram] : snapshot.aggregate().histograms) {
    if (name == "batch_prep_cycles") prep = histogram.count();
    if (name == "batch_occupancy") batches = histogram.count();
  }
  EXPECT_EQ(batches, 19u);
  EXPECT_EQ(prep, batches);
  EXPECT_NE(telemetry::to_json(snapshot).find("batch_prep_cycles"),
            std::string::npos);
  EXPECT_NE(telemetry::to_prometheus(snapshot).find("batch_prep_cycles"),
            std::string::npos);
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
  EXPECT_EQ(runner.stats().platform_cycles_initial.count(), 1u);
  EXPECT_EQ(runner.stats().platform_cycles_subsequent.count(), 3u);
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
  EXPECT_EQ(chain.global_mat().open_records(), 0u);
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
  const RunStats& stats = runner.run(workload);
  EXPECT_EQ(stats.packets, 40u);
  EXPECT_EQ(stats.latency_cycles_initial.count(), 5u);
  EXPECT_EQ(stats.latency_cycles_subsequent.count(), 35u);
  EXPECT_EQ(stats.latency_cycles_all().count(), 40u);
}

TEST(Runner, PerNfAttributionInOriginalMode) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>("a");
  chain.emplace_nf<nf::Monitor>("b");
  ChainRunner runner{chain, bess_original()};
  const trace::Workload workload = trace::make_uniform_workload(2, 10, 64);
  runner.run(workload);
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
    ChainRunner runner{fresh, modeled({platform, false})};
    runner.run(trace::make_uniform_workload(3, 20, 64));
    const double mpps = runner.stats().rate_mpps(platform);
    EXPECT_GT(mpps, 0.0);
    EXPECT_LT(mpps, 10000.0);
  }
}

TEST(Runner, OnvmLatencyExceedsBessLatency) {
  // Same chain + workload: ONVM pays a ring hop per NF, BESS a cheap module
  // hop, so modeled ONVM latency must be strictly higher. The two runs'
  // measured work differs by timing noise (large under sanitizers), so the
  // claim is checked on the modeled part of each packet's latency: in
  // original mode, latency_cycles - work_cycles is exactly the platform's
  // hop cost per NF visited plus the packet's share of the rx burst.
  const trace::Workload workload = trace::make_uniform_workload(3, 30, 64);
  const platform::PlatformCosts& costs = platform::PlatformCosts::calibrated();
  const auto modeled_overheads = [&](platform::PlatformKind platform,
                                     std::uint64_t hop) {
    ServiceChain chain;
    for (const char* name : {"noop1", "noop2"}) {
      chain.emplace_nf<nf::SyntheticNf>(
          nf::SyntheticNfConfig{0, core::PayloadAccess::kIgnore,
                                std::nullopt},
          name);
    }
    ChainRunner runner{chain, modeled({platform, false}), costs};
    std::vector<std::uint64_t> overheads;
    for (std::size_t i = 0; i < workload.packet_count(); ++i) {
      net::Packet packet = workload.materialize(i);
      const PacketOutcome outcome = runner.process_packet(packet);
      overheads.push_back(outcome.latency_cycles - outcome.work_cycles);
      // Both NFs visited; a burst of one carries the whole rx burst cost.
      EXPECT_EQ(overheads.back(), 2 * hop + costs.rx_burst_fixed_cycles)
          << "packet " << i;
    }
    return overheads;
  };
  const std::vector<std::uint64_t> bess = modeled_overheads(
      platform::PlatformKind::kBess, costs.bess_hop_cycles);
  const std::vector<std::uint64_t> onvm = modeled_overheads(
      platform::PlatformKind::kOnvm, costs.onvm_ring_hop_cycles);
  ASSERT_EQ(onvm.size(), bess.size());
  for (std::size_t i = 0; i < onvm.size(); ++i) {
    EXPECT_GT(onvm[i], bess[i]) << "packet " << i;
  }
}

TEST(Runner, EventsCountedInStats) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, bess_speedybox()};
  net::Packet first = net::make_tcp_packet(tuple_n(6), "x");
  runner.process_packet(first);

  // Register a hair-trigger event directly into the flow's record.
  core::SpeedyBoxContext ctx{*chain.global_mat().record(first.fid()), 0,
                             first.fid()};
  ctx.register_event(
      "test", [] { return true; }, [] { return core::EventUpdate{}; });

  net::Packet second = net::make_tcp_packet(tuple_n(6), "x");
  const PacketOutcome outcome = runner.process_packet(second);
  EXPECT_EQ(outcome.events_triggered, 1u);
  EXPECT_EQ(runner.stats().events_triggered, 1u);
}

}  // namespace
}  // namespace speedybox::runtime
