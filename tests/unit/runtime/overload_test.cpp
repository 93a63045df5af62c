// Unit tests for the overload-control subsystem (DESIGN.md §9): the
// deterministic OverloadController (watermark gate, drop policies,
// graceful degradation), the WatermarkGate hysteresis, the OverloadStats
// merge, and the FaultInjector wrapper.
#include "runtime/overload.hpp"

#include <gtest/gtest.h>

#include "nf/monitor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::tuple_n;
using Decision = OverloadController::Decision;

OverloadConfig base_config(DropPolicy policy, double offered_load,
                           std::size_t queue_capacity) {
  OverloadConfig config;
  config.enabled = true;
  config.policy = policy;
  config.offered_load = offered_load;
  config.queue_capacity = queue_capacity;
  return config;
}

/// The per-flow-fair band mapping, duplicated from overload.cpp so tests
/// can pick hashes on either side of the shed boundary deterministically.
std::uint64_t band_of(std::uint64_t flow_hash) {
  return (flow_hash * 0x9E3779B97F4A7C15ull) >> 54;
}

std::uint64_t hash_with_band(bool low_band) {
  for (std::uint64_t h = 1; h < 100000; ++h) {
    const std::uint64_t band = band_of(h);
    if (low_band && band < 64) return h;
    if (!low_band && band >= 960) return h;
  }
  ADD_FAILURE() << "no hash found for requested band";
  return 0;
}

TEST(DropPolicyNames, RoundTrip) {
  for (const DropPolicy policy :
       {DropPolicy::kTailDrop, DropPolicy::kPerFlowFair,
        DropPolicy::kSloEarlyDrop}) {
    const auto parsed = parse_drop_policy(drop_policy_name(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_drop_policy("head-drop").has_value());
  EXPECT_FALSE(parse_drop_policy("").has_value());
}

TEST(WatermarkGate, Hysteresis) {
  WatermarkGate gate{8, 3};
  EXPECT_FALSE(gate.update(7));
  EXPECT_TRUE(gate.update(8)) << "engages at high";
  EXPECT_TRUE(gate.update(5)) << "stays engaged above low";
  EXPECT_TRUE(gate.update(4));
  EXPECT_FALSE(gate.update(3)) << "clears at low";
  EXPECT_FALSE(gate.update(7)) << "re-engaging needs high again";
  EXPECT_TRUE(gate.update(8));
}

TEST(WatermarkGate, LowClampsToHigh) {
  WatermarkGate gate{4, 10};
  EXPECT_TRUE(gate.update(4));
  EXPECT_FALSE(gate.update(4)) << "low clamped to high: drains immediately";
}

TEST(OverloadStats, MergeFromAddsEveryField) {
  OverloadStats a;
  a.offered = 1;
  a.admitted = 2;
  a.shed_watermark = 4;
  a.shed_early_drop = 5;
  a.faulted = 6;
  a.degraded_flows = 7;
  a.degraded_packets = 8;
  a.degraded_episodes = 9;
  a.degraded_episode_packets = 10;
  OverloadStats b = a;
  b.merge_from(a);
  EXPECT_EQ(b.offered, 2u);
  EXPECT_EQ(b.admitted, 4u);
  EXPECT_EQ(b.shed_watermark, 8u);
  EXPECT_EQ(b.shed_early_drop, 10u);
  EXPECT_EQ(b.faulted, 12u);
  EXPECT_EQ(b.degraded_flows, 14u);
  EXPECT_EQ(b.degraded_packets, 16u);
  EXPECT_EQ(b.degraded_episodes, 18u);
  EXPECT_EQ(b.degraded_episode_packets, 20u);
  EXPECT_EQ(b.shed_total(), 18u);
}

TEST(OverloadController, UnderloadNeverSheds) {
  // At 0.5x capacity the virtual queue drains faster than it fills: every
  // arrival admits, forever.
  OverloadController controller{
      base_config(DropPolicy::kTailDrop, 0.5, 64)};
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(controller.offer(i, false), Decision::kAdmit);
  }
  EXPECT_FALSE(controller.pressured());
  EXPECT_LE(controller.queue_depth(), 1.0);
}

TEST(OverloadController, OverloadTailDropShedsTheExcess) {
  // At 2x, depth grows 0.5/arrival until the high watermark (56 of 64),
  // then tail-drop sheds every arrival while pressured — a deterministic
  // sawtooth between the watermarks.
  OverloadController controller{
      base_config(DropPolicy::kTailDrop, 2.0, 64)};
  int admitted = 0;
  int shed = 0;
  bool shed_before_pressure = false;
  for (int i = 0; i < 1000; ++i) {
    const Decision decision = controller.offer(i, false);
    if (decision == Decision::kAdmit) {
      ++admitted;
      if (shed > 0 && !controller.pressured()) {
        // Recovered below the low watermark: admitting again is correct.
      }
    } else {
      ASSERT_EQ(decision, Decision::kShedWatermark);
      if (admitted < 100) shed_before_pressure = true;
      ++shed;
    }
  }
  EXPECT_FALSE(shed_before_pressure) << "no shedding before the queue fills";
  EXPECT_GT(shed, 0);
  EXPECT_EQ(admitted + shed, 1000) << "every arrival is admitted or shed";
  // Long-run admit fraction approaches the service rate: 1/offered_load.
  EXPECT_NEAR(static_cast<double>(admitted) / 1000.0, 0.5, 0.15);
  EXPECT_LE(controller.queue_depth(), 64.0) << "hard queue bound";
}

TEST(OverloadController, HardBoundCapsTheQueueWhateverThePolicy) {
  // A per-flow-fair survivor band can outpace the drain; the capacity
  // bound must tail-drop what the policy admitted past it.
  OverloadConfig config = base_config(DropPolicy::kPerFlowFair, 2.0, 16);
  OverloadController controller{config};
  const std::uint64_t keep = hash_with_band(/*low_band=*/false);
  for (int i = 0; i < 500; ++i) {
    controller.offer(keep, false);
    ASSERT_LE(controller.queue_depth(),
              static_cast<double>(config.queue_capacity));
  }
}

TEST(OverloadController, PerFlowFairShedsWholeBands) {
  // Once pressured, the low hash bands shed every packet and the high
  // bands keep their full sequence (goodput, not just throughput).
  OverloadController controller{
      base_config(DropPolicy::kPerFlowFair, 2.0, 32)};
  const std::uint64_t keep = hash_with_band(false);
  const std::uint64_t dump = hash_with_band(true);
  // Drive to pressure with the surviving flow only.
  int guard = 0;
  while (!controller.pressured() && guard++ < 10000) {
    controller.offer(keep, false);
  }
  ASSERT_TRUE(controller.pressured());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(controller.offer(dump, false), Decision::kShedWatermark)
        << "low band sheds while pressured";
    EXPECT_EQ(controller.offer(keep, false), Decision::kAdmit)
        << "high band keeps its packets";
  }
}

TEST(OverloadController, SloEarlyDropShedsDoomedUnconditionally) {
  OverloadController slo{
      base_config(DropPolicy::kSloEarlyDrop, 0.5, 64)};
  EXPECT_EQ(slo.offer(1, /*doomed=*/true), Decision::kShedEarlyDrop)
      << "doomed flows shed even with an empty queue";
  EXPECT_EQ(slo.offer(1, /*doomed=*/false), Decision::kAdmit);
  // Other policies ignore the doomed flag entirely.
  OverloadController tail{base_config(DropPolicy::kTailDrop, 0.5, 64)};
  EXPECT_EQ(tail.offer(1, /*doomed=*/true), Decision::kAdmit);
}

TEST(OverloadController, ExternalPressureJoinsTheGate) {
  // A real ingress ring over its watermark must trigger policy shedding
  // even though the virtual queue is empty.
  OverloadController controller{
      base_config(DropPolicy::kTailDrop, 0.5, 64)};
  EXPECT_EQ(controller.offer(1, false, /*external_pressure=*/true),
            Decision::kShedWatermark);
  EXPECT_EQ(controller.offer(1, false, /*external_pressure=*/false),
            Decision::kAdmit);
}

TEST(OverloadController, DegradationEpisodeLifecycle) {
  OverloadController controller{
      base_config(DropPolicy::kTailDrop, 0.5, 64)};
  // kDegradeAfter consecutive pressured arrivals engage degradation...
  for (std::uint32_t i = 1; i < kDegradeAfter; ++i) {
    controller.offer(1, false, true);
  }
  EXPECT_FALSE(controller.degraded());
  controller.offer(1, false, true);
  EXPECT_TRUE(controller.degraded());
  EXPECT_EQ(controller.degraded_episodes(), 1u);
  EXPECT_FALSE(controller.take_finished_episode().has_value())
      << "episode still open";
  // ...two more arrivals ride the episode, then pressure clears.
  controller.offer(1, false, true);
  controller.offer(1, false, true);
  controller.offer(1, false, false);
  EXPECT_FALSE(controller.degraded());
  const auto episode = controller.take_finished_episode();
  ASSERT_TRUE(episode.has_value());
  EXPECT_EQ(*episode, 4u)
      << "the engaging arrival, two more and the clearing one";
  EXPECT_FALSE(controller.take_finished_episode().has_value())
      << "the latch drains on read";
  EXPECT_EQ(controller.degraded_episode_packets(), 4u);
  // An interrupted streak never degrades.
  for (std::uint32_t i = 1; i < kDegradeAfter; ++i) {
    controller.offer(1, false, true);
  }
  controller.offer(1, false, false);
  controller.offer(1, false, true);
  EXPECT_FALSE(controller.degraded());
  EXPECT_EQ(controller.degraded_episodes(), 1u);
}

TEST(ChainRunnerDegradation, NewFlowsGetDefaultRulesUnderPressure) {
  // per-flow-fair at 2x with a tiny queue: pressure engages quickly and the
  // surviving bands keep arriving, so some initial packets are admitted
  // while degraded and must take the pre-consolidated default rule.
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  RunConfig run_config{platform::PlatformKind::kBess, /*speedybox=*/true};
  run_config.overload = base_config(DropPolicy::kPerFlowFair, 2.0, 16);
  ChainRunner runner{chain, run_config};

  for (std::uint32_t i = 0; i < 2000; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(i), "x");
    runner.process_packet(packet);
  }
  const OverloadStats& stats = runner.stats().overload;
  EXPECT_EQ(stats.offered, 2000u);
  EXPECT_EQ(stats.admitted + stats.shed_total(), stats.offered)
      << "arrival conservation";
  EXPECT_EQ(stats.admitted, runner.stats().packets);
  EXPECT_GT(stats.shed_watermark, 0u);
  EXPECT_GT(stats.degraded_episodes, 0u);
  EXPECT_GT(stats.degraded_flows, 0u)
      << "flows admitted while degraded take the default rule";
  EXPECT_GT(stats.degraded_episode_packets, 0u);
}

// ---------------------------------------------------------------- faults --

net::Packet flow_packet(std::uint32_t flow, const char* payload = "x") {
  return net::make_tcp_packet(tuple_n(flow), payload);
}

TEST(FaultSpecParse, AcceptsEveryKey) {
  const auto parsed = parse_fault_spec(
      "snort:fail-every=3,latency-every=5,latency-cycles=777,crash-at=9");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, "snort");
  EXPECT_EQ(parsed->second.fail_every, 3u);
  EXPECT_EQ(parsed->second.latency_every, 5u);
  EXPECT_EQ(parsed->second.latency_cycles, 777u);
  EXPECT_EQ(parsed->second.crash_at, 9u);
  EXPECT_EQ(parsed->second.to_string(),
            "fail-every=3,latency-every=5,latency-cycles=777,crash-at=9");
}

TEST(FaultSpecParse, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_fault_spec("no-colon").has_value());
  EXPECT_FALSE(parse_fault_spec(":fail-every=3").has_value());
  EXPECT_FALSE(parse_fault_spec("nat:bad-key=3").has_value());
  EXPECT_FALSE(parse_fault_spec("nat:fail-every=abc").has_value());
  EXPECT_FALSE(parse_fault_spec("nat:latency-cycles=5").has_value())
      << "cycles alone schedules nothing";
}

TEST(FaultInjector, TransientFailuresAreDroppedAndFaulted) {
  FaultSpec spec;
  spec.fail_every = 3;
  FaultInjector injector{std::make_unique<nf::Monitor>("m"), spec};
  int faulted = 0;
  for (int i = 1; i <= 10; ++i) {
    net::Packet packet = flow_packet(1);
    injector.process(packet, nullptr);
    if (packet.dropped()) {
      EXPECT_TRUE(packet.faulted()) << "lost packets are faulted, not drops";
      EXPECT_EQ(i % 3, 0) << "deterministic schedule";
      ++faulted;
    }
  }
  EXPECT_EQ(faulted, 3);
  EXPECT_EQ(injector.transient_failures(), 3u);
  const auto& monitor = static_cast<const nf::Monitor&>(injector.inner());
  EXPECT_EQ(monitor.packets_processed(), 7u)
      << "the inner NF never sees lost packets";
  EXPECT_EQ(injector.name(), "m") << "the wrapper is transparent";
}

TEST(FaultInjector, LatencySpikesAreCountedAndHarmless) {
  FaultSpec spec;
  spec.latency_every = 4;
  spec.latency_cycles = 500;  // keep the busy-spin cheap in tests
  FaultInjector injector{std::make_unique<nf::Monitor>("m"), spec};
  for (int i = 0; i < 8; ++i) {
    net::Packet packet = flow_packet(2);
    injector.process(packet, nullptr);
    EXPECT_FALSE(packet.dropped());
  }
  EXPECT_EQ(injector.latency_spikes(), 2u);
  EXPECT_EQ(static_cast<const nf::Monitor&>(injector.inner())
                .packets_processed(),
            8u);
}

TEST(FaultInjector, CrashAndRestoreSwapsInAFreshClone) {
  FaultSpec spec;
  spec.crash_at = 3;
  FaultInjector injector{std::make_unique<nf::Monitor>("m"), spec};
  for (int i = 0; i < 2; ++i) {
    net::Packet packet = flow_packet(3);
    injector.process(packet, nullptr);
  }
  EXPECT_EQ(injector.crashes(), 0u);
  net::Packet third = flow_packet(3);
  injector.process(third, nullptr);
  EXPECT_EQ(injector.crashes(), 1u);
  // The restored instance starts from checkpointed CONFIG, not state: it
  // has only seen the post-crash packet.
  EXPECT_EQ(static_cast<const nf::Monitor&>(injector.inner())
                .packets_processed(),
            1u);
  net::Packet fourth = flow_packet(3);
  injector.process(fourth, nullptr);
  EXPECT_EQ(injector.crashes(), 1u) << "crash-at is one-shot";
  EXPECT_EQ(static_cast<const nf::Monitor&>(injector.inner())
                .packets_processed(),
            2u);
}

TEST(FaultInjector, CloneRunsAnIndependentSchedule) {
  FaultSpec spec;
  spec.fail_every = 2;
  FaultInjector original{std::make_unique<nf::Monitor>("m"), spec};
  auto cloned = original.clone();
  ASSERT_NE(cloned, nullptr);
  auto& copy = static_cast<FaultInjector&>(*cloned);
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = flow_packet(4);
    copy.process(packet, nullptr);
  }
  EXPECT_EQ(copy.transient_failures(), 2u);
  EXPECT_EQ(original.transient_failures(), 0u)
      << "per-shard schedules are independent";
  EXPECT_EQ(copy.spec().fail_every, 2u);
}

}  // namespace
}  // namespace speedybox::runtime
