// Unit coverage for the elastic control plane (DESIGN.md §10): the
// hysteresis scaling policy in isolation, the chain-level flow-migration
// engine, and the controller end-to-end against a real sharded runtime.
// The chain-level safety property (byte-identical outputs under mid-trace
// resharding) lives in the autoscale differential-equivalence harness;
// these tests pin the mechanisms it composes.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "control/controller.hpp"
#include "control/flow_migration.hpp"
#include "net/packet_builder.hpp"
#include "nf/ip_filter.hpp"
#include "nf/monitor.hpp"
#include "nf/network_function.hpp"
#include "runtime/chain.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"

namespace speedybox::control {
namespace {

using speedybox::testing::tuple_n;

// --- ScalingPolicy --------------------------------------------------------

AutoscaleConfig fast_config() {
  AutoscaleConfig config;
  config.slo_us = 100.0;
  config.min_shards = 1;
  config.max_shards = 4;
  config.up_streak = 2;
  config.down_streak = 2;
  config.cooldown_windows = 0;
  return config;
}

ControlSignals breach_signals() {
  ControlSignals signals;
  signals.p99_latency_us = 500.0;  // over the 100us SLO
  signals.window_packets = 1000;
  return signals;
}

ControlSignals calm_signals() {
  ControlSignals signals;
  signals.p99_latency_us = 10.0;  // under slo * scale_down_fraction
  signals.window_packets = 1000;
  return signals;
}

TEST(ScalingPolicy, ScalesUpOnlyAfterTheBreachStreak) {
  ScalingPolicy policy{fast_config()};
  EXPECT_EQ(policy.decide(breach_signals(), 1), 1u);  // streak 1 of 2
  EXPECT_EQ(policy.decide(breach_signals(), 1), 2u);  // streak 2: up
}

TEST(ScalingPolicy, CalmWindowResetsTheBreachStreak) {
  ScalingPolicy policy{fast_config()};
  EXPECT_EQ(policy.decide(breach_signals(), 1), 1u);
  EXPECT_EQ(policy.decide(calm_signals(), 1), 1u);  // resets breach streak
  EXPECT_EQ(policy.decide(breach_signals(), 1), 1u);  // back to streak 1
  EXPECT_EQ(policy.decide(breach_signals(), 1), 2u);
}

TEST(ScalingPolicy, ScalesDownOnlyAfterTheCalmStreak) {
  ScalingPolicy policy{fast_config()};
  EXPECT_EQ(policy.decide(calm_signals(), 3), 3u);
  EXPECT_EQ(policy.decide(calm_signals(), 3), 2u);
}

TEST(ScalingPolicy, MiddlingWindowIsNeitherBreachNorCalm) {
  // p99 between scale_down_fraction * slo and slo: both streaks reset.
  ScalingPolicy policy{fast_config()};
  ControlSignals middling;
  middling.p99_latency_us = 80.0;
  middling.window_packets = 1000;
  EXPECT_EQ(policy.decide(calm_signals(), 2), 2u);
  EXPECT_EQ(policy.decide(middling, 2), 2u);
  EXPECT_EQ(policy.calm_streak(), 0);
  EXPECT_EQ(policy.breach_streak(), 0);
}

TEST(ScalingPolicy, EmptyWindowNeverScalesDown) {
  // An idle trace tail must not shrink the deployment: calm requires
  // observed packets.
  ScalingPolicy policy{fast_config()};
  ControlSignals idle;
  idle.p99_latency_us = 0.0;
  idle.window_packets = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.decide(idle, 2), 2u);
  }
}

TEST(ScalingPolicy, QueueAndAdmissionPressureCountAsBreaches) {
  AutoscaleConfig config = fast_config();
  config.up_streak = 1;
  {
    ScalingPolicy policy{config};
    ControlSignals pressured = calm_signals();
    pressured.ring_occupancy = 0.75;  // >= occupancy_high
    EXPECT_EQ(policy.decide(pressured, 1), 2u);
  }
  {
    ScalingPolicy policy{config};
    ControlSignals shedding = calm_signals();
    shedding.admit_fraction = 0.90;  // < admit_low
    EXPECT_EQ(policy.decide(shedding, 1), 2u);
  }
}

TEST(ScalingPolicy, CooldownDefersButStreaksKeepBuilding) {
  AutoscaleConfig config = fast_config();
  config.cooldown_windows = 2;
  ScalingPolicy policy{config};
  EXPECT_EQ(policy.decide(breach_signals(), 1), 1u);
  EXPECT_EQ(policy.decide(breach_signals(), 1), 2u);  // up; cooldown armed
  // Two cooldown windows absorb the decisions; the breach streak still
  // accumulates, so the first post-cooldown window fires immediately.
  EXPECT_EQ(policy.decide(breach_signals(), 2), 2u);
  EXPECT_EQ(policy.decide(breach_signals(), 2), 2u);
  EXPECT_GE(policy.breach_streak(), config.up_streak);
  EXPECT_EQ(policy.decide(breach_signals(), 2), 3u);
}

TEST(ScalingPolicy, ClampsOutOfBandCountsBeforeJudging) {
  ScalingPolicy policy{fast_config()};
  EXPECT_EQ(policy.decide(calm_signals(), 9), 4u);  // above max_shards
  EXPECT_EQ(policy.decide(breach_signals(), 0), 1u);  // below min_shards
}

TEST(ScalingPolicy, NeverLeavesTheConfiguredRange) {
  AutoscaleConfig config = fast_config();
  config.up_streak = 1;
  config.down_streak = 1;
  ScalingPolicy up{config};
  EXPECT_EQ(up.decide(breach_signals(), 4), 4u);  // at ceiling: stays
  ScalingPolicy down{config};
  EXPECT_EQ(down.decide(calm_signals(), 1), 1u);  // at floor: stays
}

// --- Flow migration -------------------------------------------------------

std::unique_ptr<runtime::ServiceChain> monitor_filter_chain() {
  auto chain = std::make_unique<runtime::ServiceChain>("mini");
  chain->emplace_nf<nf::Monitor>();
  chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{});
  return chain;
}

TEST(FlowMigration, RequireMigratableNamesTheOffendingNf) {
  struct Opaque final : nf::NetworkFunction {
    Opaque() : NetworkFunction("legacy-blackbox") {}
    void process(net::Packet&, core::SpeedyBoxContext*) override {}
  };
  runtime::ServiceChain chain{"mixed"};
  chain.emplace_nf<nf::Monitor>();
  chain.emplace_nf<Opaque>();
  try {
    require_migratable(chain);
    FAIL() << "chain with a non-migratable NF must be refused";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string{error.what()}.find("legacy-blackbox"),
              std::string::npos);
  }
  EXPECT_NO_THROW(require_migratable(*monitor_filter_chain()));
}

TEST(FlowMigration, MigratedFlowsTakeTheFastPathOnTheDestination) {
  const runtime::RunConfig run_config{platform::PlatformKind::kBess, true};
  auto source_chain = monitor_filter_chain();
  auto control_chain = monitor_filter_chain();  // never-migrated baseline
  runtime::ChainRunner source_runner{*source_chain, run_config};
  runtime::ChainRunner control_runner{*control_chain, run_config};
  for (std::uint32_t flow = 0; flow < 4; ++flow) {
    for (int i = 0; i < 3; ++i) {
      net::Packet a = net::make_tcp_packet(tuple_n(flow), "warm");
      net::Packet b = net::make_tcp_packet(tuple_n(flow), "warm");
      source_runner.process_packet(a);
      control_runner.process_packet(b);
    }
  }

  auto dest_chain = monitor_filter_chain();
  const auto flows = source_chain->classifier().active_tuples();
  ASSERT_EQ(flows.size(), 4u);
  EXPECT_EQ(migrate_flows(*source_chain, *dest_chain, flows), 4u);

  // The source sheds everything it held for the migrated flows...
  EXPECT_TRUE(source_chain->classifier().active_tuples().empty());
  auto& source_monitor =
      static_cast<nf::Monitor&>(source_chain->nf(0));
  EXPECT_EQ(source_monitor.flow_count(), 0u);

  // ...and the destination continues them exactly where the baseline is:
  // same bytes, same audit counters, and on the consolidated fast path
  // (no re-recording pass).
  runtime::ChainRunner dest_runner{*dest_chain, run_config};
  for (std::uint32_t flow = 0; flow < 4; ++flow) {
    net::Packet migrated = net::make_tcp_packet(tuple_n(flow), "after");
    net::Packet baseline = net::make_tcp_packet(tuple_n(flow), "after");
    const auto outcome = dest_runner.process_packet(migrated);
    control_runner.process_packet(baseline);
    EXPECT_FALSE(outcome.initial) << "flow " << flow;
    EXPECT_TRUE(outcome.fast_path) << "flow " << flow;
    EXPECT_TRUE(speedybox::testing::same_bytes(migrated, baseline))
        << "flow " << flow;
  }
  auto& dest_monitor = static_cast<nf::Monitor&>(dest_chain->nf(0));
  auto& control_monitor =
      static_cast<nf::Monitor&>(control_chain->nf(0));
  ASSERT_EQ(dest_monitor.flow_count(), control_monitor.flow_count());
  control_monitor.for_each_flow(
      [&](const net::FiveTuple& tuple, const nf::FlowCounters& counters) {
        const nf::FlowCounters* dest = dest_monitor.counters_of(tuple);
        ASSERT_NE(dest, nullptr) << tuple.to_string();
        EXPECT_EQ(*dest, counters) << tuple.to_string();
      });
}

TEST(FlowMigration, FullDestinationLeavesTheFlowsAtTheSource) {
  const runtime::RunConfig run_config{platform::PlatformKind::kBess, true};
  auto source_chain = monitor_filter_chain();
  runtime::ChainRunner source_runner{*source_chain, run_config};
  for (std::uint32_t flow = 0; flow < 4; ++flow) {
    for (int i = 0; i < 3; ++i) {
      net::Packet packet = net::make_tcp_packet(tuple_n(flow), "warm");
      source_runner.process_packet(packet);
    }
  }
  const auto flows = source_chain->classifier().active_tuples();
  ASSERT_EQ(flows.size(), 4u);
  auto& source_monitor = static_cast<nf::Monitor&>(source_chain->nf(0));
  const nf::FlowCounters before = *source_monitor.counters_of(tuple_n(0));

  // Every destination FID is live but three: too few for the group.
  auto dest_chain = monitor_filter_chain();
  constexpr std::uint32_t kFids = net::kFidMask + 1;
  for (std::uint32_t i = 0; i < kFids; ++i) {
    net::FiveTuple tuple = tuple_n(0);
    tuple.src_ip = net::Ipv4Addr{i};
    tuple.dst_port = 9;
    ASSERT_TRUE(dest_chain->classifier().adopt_flow(tuple, 0).has_value());
  }
  for (std::uint32_t fid = 0; fid < 3; ++fid) {
    dest_chain->classifier().release_flow(fid);
  }
  EXPECT_EQ(migrate_flows(*source_chain, *dest_chain, flows), 0u);

  // Nothing moved: the destination took no flow, and the source keeps
  // every flow, its counters and its consolidated rule.
  EXPECT_EQ(dest_chain->classifier().active_flows(), kFids - 3);
  EXPECT_EQ(source_chain->classifier().active_flows(), 4u);
  ASSERT_EQ(source_monitor.flow_count(), 4u);
  EXPECT_EQ(*source_monitor.counters_of(tuple_n(0)), before);
  for (std::uint32_t flow = 0; flow < 4; ++flow) {
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "after");
    EXPECT_TRUE(source_runner.process_packet(packet).fast_path)
        << "flow " << flow;
  }
}

TEST(Reshard, RefusedWhenADestinationLacksFidsForItsGroup) {
  // Scaling 2 -> 1 shards moves shard 1's flows to shard 0, which has too
  // few free FIDs for them: nothing may move and routing must stay at two
  // shards, or the flows' later packets would reach a shard without their
  // records.
  telemetry::Registry registry;
  auto prototype = monitor_filter_chain();
  runtime::ShardedRuntime runtime{
      *prototype, 2, {platform::PlatformKind::kBess, true}, 1024,
      &registry, "rt/"};
  std::vector<net::FiveTuple> flows;
  for (std::uint32_t id = 0; flows.size() < 4; ++id) {
    if (runtime.shard_of(tuple_n(id)) == 1) flows.push_back(tuple_n(id));
  }
  std::vector<net::Packet> input;
  const auto send = [&](const char* payload) {
    for (const net::FiveTuple& tuple : flows) {
      input.push_back(net::make_tcp_packet(tuple, payload));
      runtime.push(input.back());
    }
  };
  send("open");
  send("warm");
  runtime.quiesce();
  core::PacketClassifier& full = runtime.shard_chain(0).classifier();
  for (std::uint32_t i = 0; full.free_fid_count() >= flows.size(); ++i) {
    net::FiveTuple filler = tuple_n(0);
    filler.src_ip = net::Ipv4Addr{i};
    filler.dst_port = 9;
    ASSERT_TRUE(full.adopt_flow(filler, 0).has_value());
  }

  const ReshardReport report = reshard(runtime, 1);
  EXPECT_EQ(report.migrated_flows, 0u);
  EXPECT_EQ(report.to_shards, report.from_shards);
  EXPECT_EQ(runtime.active_shard_count(), 2u);

  // The controller counts no scale event for a refused reshard.
  AutoscaleConfig config;
  config.slo_us = 1e9;  // calm: it wants one shard
  config.min_shards = 1;
  config.max_shards = 2;
  config.down_streak = 1;
  config.cooldown_windows = 0;
  Controller controller{config, registry};
  controller.tick(runtime);
  EXPECT_TRUE(controller.scale_events().empty());
  EXPECT_EQ(runtime.active_shard_count(), 2u);

  const std::size_t later = input.size();
  send("after");
  send("more");
  const runtime::ShardedRunResult result = runtime.finish();
  auto reference_chain = monitor_filter_chain();
  runtime::ChainRunner reference{*reference_chain,
                                 {platform::PlatformKind::kBess, false}};
  std::vector<net::Packet> expected;
  reference.run_packets(input, &expected);
  ASSERT_EQ(result.packets.size(), input.size());
  for (std::size_t i = later; i < input.size(); ++i) {
    EXPECT_TRUE(result.outcomes[i].fast_path) << "packet " << i;
    EXPECT_EQ(result.packets[i].dropped(), expected[i].dropped())
        << "packet " << i;
    EXPECT_TRUE(speedybox::testing::same_bytes(result.packets[i],
                                               expected[i]))
        << "packet " << i;
  }
}

// --- Controller against a live runtime ------------------------------------

std::vector<net::Packet> warm_packets(std::size_t count) {
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    packets.push_back(net::make_tcp_packet(
        tuple_n(static_cast<std::uint32_t>(i % 8)), "payload"));
  }
  return packets;
}

TEST(Controller, ScalesUpUnderAnUnmeetableSloAndLosesNothing) {
  telemetry::Registry registry;
  auto prototype = monitor_filter_chain();
  runtime::ShardedRuntime runtime{
      *prototype, 1, {platform::PlatformKind::kBess, true}, 1024,
      &registry, "rt/"};

  AutoscaleConfig config;
  config.slo_us = 0.001;  // unmeetable: every window is a breach
  config.min_shards = 1;
  config.max_shards = 2;
  config.interval_packets = 128;
  config.up_streak = 1;
  config.cooldown_windows = 0;
  Controller controller{config, registry};
  controller.attach(runtime);

  const auto result = runtime.run_packets(warm_packets(4096));
  ASSERT_GE(controller.scale_events().size(), 1u);
  EXPECT_EQ(controller.scale_events().front().from_shards, 1u);
  EXPECT_EQ(controller.scale_events().front().to_shards, 2u);
  EXPECT_EQ(runtime.active_shard_count(), 2u);
  EXPECT_EQ(result.stats.packets, 4096u);
  EXPECT_EQ(result.stats.drops, 0u);
  EXPECT_EQ(result.outcomes.size(), 4096u);

  // The controller's own cells surface through the standard exporters.
  const telemetry::ShardSnapshot total = registry.snapshot().aggregate();
  std::uint64_t scale_events = 0;
  std::uint64_t active_shards = 0;
  for (const auto& [name, value] : total.counters) {
    if (name == "scale_events") scale_events = value;
  }
  for (const auto& [name, value] : total.gauges) {
    if (name == "active_shards") active_shards = value;
  }
  EXPECT_EQ(scale_events, controller.scale_events().size());
  EXPECT_EQ(active_shards, 2u);
}

TEST(Controller, ScalesDownWhenCalmAndRetiredShardsHoldNoFlows) {
  telemetry::Registry registry;
  auto prototype = monitor_filter_chain();
  runtime::ShardedRuntime runtime{
      *prototype, 2, {platform::PlatformKind::kBess, true}, 1024,
      &registry, "rt/"};

  AutoscaleConfig config;
  config.slo_us = 1e9;  // everything is calm
  config.min_shards = 1;
  config.max_shards = 2;
  config.down_streak = 1;
  config.cooldown_windows = 0;
  Controller controller{config, registry};
  controller.attach(runtime);

  // Drive the tick by hand at a quiesced boundary so the window is
  // guaranteed non-empty (the workers have visibly processed the burst).
  for (const net::Packet& packet : warm_packets(512)) {
    runtime.push(packet);
  }
  runtime.quiesce();
  controller.tick(runtime);
  ASSERT_EQ(controller.scale_events().size(), 1u);
  EXPECT_EQ(controller.scale_events().front().from_shards, 2u);
  EXPECT_EQ(controller.scale_events().front().to_shards, 1u);
  EXPECT_EQ(runtime.active_shard_count(), 1u);

  // Scale-down must shed no packets and leave no flow behind on the
  // retired shard.
  EXPECT_TRUE(runtime.shard_chain(1).classifier().active_tuples().empty());
  for (const net::Packet& packet : warm_packets(256)) {
    runtime.push(packet);
  }
  const auto result = runtime.finish();
  EXPECT_EQ(result.stats.packets, 768u);
  EXPECT_EQ(result.stats.drops, 0u);
}

}  // namespace
}  // namespace speedybox::control
