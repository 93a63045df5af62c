// ShardedRuntime unit tests: flow→shard affinity (both directions of a
// connection), drain-on-destruction, full-ring backpressure, shedding at
// the rings under the overload gate, clone refusal, and exact per-shard
// stats merging.
#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "nf/ip_filter.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/sharded_runtime.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"
#include "util/hash.hpp"
#include "util/histogram.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::same_bytes;
using speedybox::testing::modeled;
using speedybox::testing::tuple_n;

/// Every packet of `workload`, for runs whose outcomes are inspected.
std::vector<net::Packet> packets_of(const trace::Workload& workload) {
  std::vector<net::Packet> packets;
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

std::unique_ptr<ServiceChain> monitor_chain() {
  auto chain = std::make_unique<ServiceChain>("mon");
  chain->emplace_nf<nf::Monitor>();
  return chain;
}

TEST(ShardedRuntime, BothDirectionsOfAFlowShareAShard) {
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 4};
  for (std::uint32_t id = 0; id < 200; ++id) {
    const net::FiveTuple forward = tuple_n(id);
    EXPECT_EQ(runtime.shard_of(forward), runtime.shard_of(forward.reversed()))
        << forward.to_string();
    EXPECT_LT(runtime.shard_of(forward), runtime.shard_count());
  }
}

TEST(ShardedRuntime, PacketsLandOnTheirFlowsShard) {
  const trace::Workload workload = trace::make_uniform_workload(32, 6, 32);
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 4};

  // Expected per-shard packet counts from the dispatch function alone.
  std::vector<std::uint64_t> expected(runtime.shard_count(), 0);
  for (const trace::TracePacket& tp : workload.order) {
    ++expected[runtime.shard_of(workload.flows[tp.flow].tuple)];
  }

  runtime.run(workload);
  const ShardedRunResult& result = runtime.last_result();
  EXPECT_EQ(result.shard_packets, expected);
  EXPECT_EQ(result.stats.packets, workload.packet_count());

  // And the per-shard Monitor state covers exactly that shard's flows.
  for (std::size_t s = 0; s < runtime.shard_count(); ++s) {
    auto* monitor = dynamic_cast<nf::Monitor*>(&runtime.shard_chain(s).nf(0));
    ASSERT_NE(monitor, nullptr);
    monitor->for_each_flow(
        [&](const net::FiveTuple& tuple, const nf::FlowCounters&) {
          EXPECT_EQ(runtime.shard_of(tuple), s) << tuple.to_string();
        });
  }
}

TEST(ShardedRuntime, PartitionByFlowMatchesDispatcherSteering) {
  // trace::partition_by_flow promises sub-workload k is exactly what shard
  // k sees; hold it to that against the runtime's own shard_of.
  const trace::Workload workload = trace::make_uniform_workload(40, 3, 16);
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 4};
  const auto parts = trace::partition_by_flow(workload, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (const auto& flow : parts[s].flows) {
      EXPECT_EQ(runtime.shard_of(flow.tuple), s) << flow.tuple.to_string();
    }
  }
}

/// Counts process() calls into shared storage so processing is observable
/// after the runtime (and its cloned chains) are gone.
class CountingNf : public nf::NetworkFunction {
 public:
  explicit CountingNf(std::atomic<std::uint64_t>* counter)
      : nf::NetworkFunction("counting"), counter_(counter) {}
  void process(net::Packet&, core::SpeedyBoxContext*) override {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_ptr<nf::NetworkFunction> clone() const override {
    return std::make_unique<CountingNf>(counter_);
  }

 private:
  std::atomic<std::uint64_t>* counter_;
};

TEST(ShardedRuntime, DestructorDrainsInFlightPackets) {
  std::atomic<std::uint64_t> processed{0};
  {
    ServiceChain chain{"count"};
    chain.emplace_nf<CountingNf>(&processed);
    // Original mode: every packet reaches the NF, so the counter is an
    // exact packet count.
    ShardedRuntime runtime{
        chain, 4, {platform::PlatformKind::kBess, false}};
    for (std::uint32_t i = 0; i < 300; ++i) {
      runtime.push(net::make_tcp_packet(tuple_n(i % 24), "inflight"));
    }
    // No finish(): the destructor must drain all 300 before joining.
  }
  EXPECT_EQ(processed.load(), 300u);
}

TEST(ShardedRuntime, FullRingExertsBackpressureWithoutLoss) {
  auto chain = monitor_chain();
  // Ring of 2 slots: the dispatcher outruns the workers immediately.
  ShardedRuntime runtime{*chain, 2,
                         {platform::PlatformKind::kBess, true},
                         /*ring_capacity=*/2};
  const trace::Workload workload = trace::make_uniform_workload(16, 25, 32);
  const ShardedRunResult result = runtime.run_packets(packets_of(workload));
  EXPECT_EQ(result.stats.packets, workload.packet_count());
  EXPECT_EQ(result.outcomes.size(), workload.packet_count());
  EXPECT_GT(runtime.backpressure_waits(), 0u)
      << "a 2-slot ring under a 400-packet burst must fill";
  for (const PacketOutcome& outcome : result.outcomes) {
    EXPECT_FALSE(outcome.dropped);
  }
}

TEST(ShardedRuntime, OverloadFromRunConfigShedsAtTheRings) {
  // The gate in RunConfig alone arms the dispatcher: behind small rings a
  // slow NF makes it shed, never wait. Original mode, so every packet
  // reaches the injector's latency spike.
  ServiceChain chain{"slow"};
  FaultSpec spec;
  spec.latency_every = 1;
  spec.latency_cycles = 100000;
  chain.adopt_nf(std::make_unique<FaultInjector>(
      std::make_unique<nf::Monitor>("m"), spec));
  RunConfig config{platform::PlatformKind::kBess, false};
  config.batch_size = 8;
  config.overload.enabled = true;
  telemetry::Registry registry;
  ShardedRuntime runtime{chain, 2, config, /*ring_capacity=*/16, &registry,
                         "rt/"};
  const trace::Workload workload = trace::make_uniform_workload(32, 16, 32);
  const RunStats& stats = runtime.run(packets_of(workload), nullptr);

  EXPECT_EQ(runtime.backpressure_waits(), 0u)
      << "an armed dispatcher sheds instead of blocking";
  const OverloadStats& overload = stats.overload;
  EXPECT_EQ(overload.offered, workload.packet_count());
  EXPECT_EQ(overload.offered, overload.admitted + overload.shed_total());
  std::uint64_t ring_shed = 0;
  std::uint64_t shed_cells = 0;
  for (const auto& [name, value] : registry.snapshot().aggregate().counters) {
    if (name == "shed_ring") ring_shed = value;
    if (name == "shed_ring" || name == "shed_watermark" ||
        name == "shed_early_drop") {
      shed_cells += value;
    }
  }
  EXPECT_GT(ring_shed, 0u) << "a 16-slot ring behind a slow NF must shed";
  EXPECT_EQ(shed_cells, overload.shed_total())
      << "telemetry sees every shed RunStats counts";
}
TEST(ShardedRuntime, RingSmallerThanBurstStillDeliversEverything) {
  // Ring capacity 4 < batch_size 8: every staging flush is a partial burst
  // push, so the dispatcher's retry loop and the worker's partial pops are
  // both on the hot path. Nothing may be lost or reordered per flow.
  auto chain = monitor_chain();
  runtime::RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = 8;
  ShardedRuntime runtime{*chain, 2, config, /*ring_capacity=*/4};
  const trace::Workload workload = trace::make_uniform_workload(12, 30, 24);
  const ShardedRunResult result = runtime.run_packets(packets_of(workload));
  EXPECT_EQ(result.stats.packets, workload.packet_count());
  EXPECT_EQ(result.outcomes.size(), workload.packet_count());
  EXPECT_GT(runtime.backpressure_waits(), 0u)
      << "burst of 8 into a 4-slot ring must block at least once";
  for (const PacketOutcome& outcome : result.outcomes) {
    EXPECT_FALSE(outcome.dropped);
  }
}

TEST(ShardedRuntime, PartialStagingBuffersFlushOnFinish) {
  // 5 packets of one flow with batch_size 8: the staging buffer never
  // fills, so only the finish()-time flush delivers them.
  auto chain = monitor_chain();
  runtime::RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = 8;
  ShardedRuntime runtime{*chain, 2, config};
  for (int i = 0; i < 5; ++i) {
    runtime.push(net::make_tcp_packet(tuple_n(3), "staged"));
  }
  const ShardedRunResult result = runtime.finish();
  EXPECT_EQ(result.stats.packets, 5u);
  EXPECT_EQ(result.outcomes.size(), 5u);
}

TEST(ShardedRuntime, SingleShardMatchesChainRunnerExactly) {
  const trace::Workload workload = trace::make_uniform_workload(10, 8, 48);

  auto reference_chain = std::make_unique<ServiceChain>("ref");
  reference_chain->emplace_nf<nf::MazuNat>();
  reference_chain->emplace_nf<nf::Monitor>();
  ChainRunner runner{*reference_chain,
                     {platform::PlatformKind::kBess, true}};
  std::vector<net::Packet> reference_out;
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    net::Packet packet = workload.materialize(i);
    runner.process_packet(packet);
    reference_out.push_back(std::move(packet));
  }

  auto prototype = std::make_unique<ServiceChain>("proto");
  prototype->emplace_nf<nf::MazuNat>();
  prototype->emplace_nf<nf::Monitor>();
  ShardedRuntime runtime{*prototype, 1,
                         {platform::PlatformKind::kBess, true}};
  const ShardedRunResult result = runtime.run_packets(packets_of(workload));

  ASSERT_EQ(result.packets.size(), reference_out.size());
  for (std::size_t i = 0; i < reference_out.size(); ++i) {
    EXPECT_TRUE(same_bytes(result.packets[i], reference_out[i]))
        << "packet " << i;
  }
}

TEST(ShardedRuntime, RefusesChainsWithNonClonableNfs) {
  class NotClonable : public nf::NetworkFunction {
   public:
    NotClonable() : nf::NetworkFunction("opaque") {}
    void process(net::Packet&, core::SpeedyBoxContext*) override {}
  };
  ServiceChain chain{"opaque-chain"};
  chain.emplace_nf<NotClonable>();
  EXPECT_THROW(ShardedRuntime(chain, 2), std::logic_error);
}

TEST(ShardedRuntime, PushAfterFinishThrows) {
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 2};
  runtime.push(net::make_tcp_packet(tuple_n(1), "x"));
  runtime.finish();
  EXPECT_THROW(runtime.push(net::make_tcp_packet(tuple_n(2), "y")),
               std::logic_error);
}

TEST(ShardedRuntime, MergedStatsAreExactSumsOfShardStats) {
  const trace::Workload workload = trace::make_uniform_workload(30, 10, 64);
  auto chain = std::make_unique<ServiceChain>("stats");
  chain->emplace_nf<nf::MazuNat>();
  chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{
      nf::AclRule::drop_dst_port(81)});
  ShardedRuntime runtime{*chain, 3,
                         modeled({platform::PlatformKind::kBess, true})};
  const ShardedRunResult result = runtime.run_packets(packets_of(workload));

  std::uint64_t packets = 0;
  for (const std::uint64_t shard_packets : result.shard_packets) {
    packets += shard_packets;
  }
  // Rebuild every merged histogram from the per-packet outcomes: bucket
  // merging is exact, so percentiles and sums must match bit for bit.
  std::uint64_t drops = 0;
  util::LogHistogram latency[2];   // [initial, subsequent]
  util::LogHistogram platform[2];
  for (const PacketOutcome& outcome : result.outcomes) {
    if (outcome.dropped && !outcome.faulted) ++drops;
    const int cls = outcome.initial ? 0 : 1;
    latency[cls].add(static_cast<double>(outcome.latency_cycles));
    platform[cls].add(static_cast<double>(outcome.platform_cycles));
  }
  EXPECT_EQ(result.stats.packets, packets);
  EXPECT_EQ(result.stats.packets, workload.packet_count());
  EXPECT_EQ(result.stats.drops, drops);
  EXPECT_EQ(result.stats.latency_cycles_all().count(), packets);
  const auto expect_same = [](const util::LogHistogram& merged,
                              const util::LogHistogram& rebuilt) {
    EXPECT_EQ(merged.count(), rebuilt.count());
    EXPECT_DOUBLE_EQ(merged.sum(), rebuilt.sum());
    for (const double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(merged.percentile(p), rebuilt.percentile(p))
          << "p=" << p;
    }
  };
  expect_same(result.stats.latency_cycles_initial, latency[0]);
  expect_same(result.stats.latency_cycles_subsequent, latency[1]);
  expect_same(result.stats.platform_cycles_initial, platform[0]);
  expect_same(result.stats.platform_cycles_subsequent, platform[1]);
}

}  // namespace
}  // namespace speedybox::runtime
