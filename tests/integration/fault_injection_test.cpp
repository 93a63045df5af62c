// Fault-injection integration (DESIGN.md §9): a FaultInjector-wrapped NF
// inside a real chain, driven through the runtime::Executor interface on
// the scalar runner and the 4-shard runtime. Checks:
//
//   * conservation with faults: packets == delivered + drops + faulted,
//     with `faulted` disjoint from policy `drops` — on both deployments;
//   * the deterministic fail-every schedule is exact on the original path
//     (every packet traverses the NF) and per-shard-independent when the
//     chain is clone()d;
//   * crash-and-restore mid-run: the chain keeps processing, consolidated
//     rules recorded against the pre-crash instance stay safe (the
//     graveyard keeps it alive), and per-flow state restarts from config.
//
// test_integration runs under TSan/ASan via tools/run_sanitizers.sh, which
// makes this the data-race gate for faults inside the sharded runtime.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

/// nat -> monitor, with the monitor wrapped in a FaultInjector.
std::unique_ptr<ServiceChain> make_faulty_chain(const FaultSpec& spec) {
  auto chain = std::make_unique<ServiceChain>("faulty");
  chain->emplace_nf<nf::MazuNat>();
  chain->adopt_nf(std::make_unique<FaultInjector>(
      std::make_unique<nf::Monitor>("monitor"), spec));
  return chain;
}

const FaultInjector& injector_of(const ServiceChain& chain) {
  return static_cast<const FaultInjector&>(chain.nf(1));
}

std::vector<net::Packet> workload_packets() {
  const trace::Workload workload =
      trace::make_uniform_workload(/*flows=*/40, /*packets_per_flow=*/25,
                                   /*payload=*/64, /*seed=*/77);
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

std::uint64_t count_delivered(const std::vector<net::Packet>& outputs) {
  std::uint64_t delivered = 0;
  for (const net::Packet& packet : outputs) {
    if (!packet.dropped()) ++delivered;
  }
  return delivered;
}

TEST(FaultInjection, ScalarOriginalPathExactScheduleAndConservation) {
  FaultSpec spec;
  spec.fail_every = 7;
  auto chain = make_faulty_chain(spec);
  // Original path: every packet traverses the NFs, so the schedule is
  // exact: floor(1000 / 7) failures.
  ChainRunner runner{*chain,
                     {platform::PlatformKind::kBess, /*speedybox=*/false}};
  Executor& executor = runner;
  const std::vector<net::Packet> packets = workload_packets();
  std::vector<net::Packet> outputs;
  const RunStats& stats = executor.run(packets, &outputs);

  const std::uint64_t expected_faults = packets.size() / 7;
  EXPECT_EQ(injector_of(*chain).transient_failures(), expected_faults);
  EXPECT_EQ(stats.overload.faulted, expected_faults);
  EXPECT_EQ(stats.packets, packets.size());
  EXPECT_EQ(stats.packets,
            count_delivered(outputs) + stats.drops + stats.overload.faulted)
      << "packets == delivered + drops + faulted";
  EXPECT_EQ(stats.drops, 0u) << "faults are not policy drops";
}

TEST(FaultInjection, ScalarSpeedyBoxPathStillConserves) {
  // On the SpeedyBox path only recording-path packets traverse the NF, so
  // the fault count is workload-dependent — but conservation is not.
  FaultSpec spec;
  spec.fail_every = 5;
  auto chain = make_faulty_chain(spec);
  ChainRunner runner{*chain,
                     {platform::PlatformKind::kBess, /*speedybox=*/true}};
  Executor& executor = runner;
  const std::vector<net::Packet> packets = workload_packets();
  std::vector<net::Packet> outputs;
  const RunStats& stats = executor.run(packets, &outputs);

  EXPECT_GT(stats.overload.faulted, 0u);
  EXPECT_EQ(stats.overload.faulted,
            injector_of(*chain).transient_failures());
  EXPECT_EQ(stats.packets,
            count_delivered(outputs) + stats.drops + stats.overload.faulted);
}

TEST(FaultInjection, ShardedFourWayIndependentSchedulesAndConservation) {
  FaultSpec spec;
  spec.fail_every = 7;
  auto prototype = make_faulty_chain(spec);
  ShardedRuntime runtime{*prototype, 4,
                         {platform::PlatformKind::kBess, /*speedybox=*/false}};
  Executor& executor = runtime;
  const std::vector<net::Packet> packets = workload_packets();
  std::vector<net::Packet> outputs;  // keeps the outcomes too
  executor.run(packets, &outputs);
  const ShardedRunResult& result = runtime.last_result();

  // Each shard's clone()d injector runs its own schedule over the packets
  // that shard saw: the merged fault count is the sum of per-shard floors.
  std::uint64_t expected_faults = 0;
  for (std::size_t s = 0; s < runtime.shard_count(); ++s) {
    expected_faults += result.shard_packets[s] / 7;
    const auto& shard_injector = injector_of(runtime.shard_chain(s));
    EXPECT_EQ(shard_injector.transient_failures(),
              result.shard_packets[s] / 7)
        << "shard " << s;
  }
  EXPECT_EQ(result.stats.overload.faulted, expected_faults);

  std::uint64_t delivered = 0;
  for (const PacketOutcome& outcome : result.outcomes) {
    if (!outcome.dropped) ++delivered;
  }
  EXPECT_EQ(result.stats.packets,
            delivered + result.stats.drops + result.stats.overload.faulted);
  EXPECT_EQ(injector_of(*prototype).transient_failures(), 0u)
      << "the prototype never processes packets";
}

TEST(FaultInjection, CrashAndRestoreMidRunKeepsProcessing) {
  FaultSpec spec;
  // On the SpeedyBox path only recording-path packets reach the NF (one
  // initial packet per flow, 40 flows here), so the crash point must sit
  // inside that budget.
  spec.crash_at = 20;
  auto chain = make_faulty_chain(spec);
  // SpeedyBox path: rules consolidated against the PRE-crash monitor keep
  // running its recorded state functions from the graveyard; flows that
  // record after the crash hit the fresh instance.
  ChainRunner runner{*chain,
                     {platform::PlatformKind::kBess, /*speedybox=*/true}};
  Executor& executor = runner;
  const std::vector<net::Packet> packets = workload_packets();
  std::vector<net::Packet> outputs;
  const RunStats& stats = executor.run(packets, &outputs);

  const FaultInjector& injector = injector_of(*chain);
  EXPECT_EQ(injector.crashes(), 1u);
  EXPECT_EQ(stats.packets, packets.size())
      << "a crash-and-restore loses no packets";
  EXPECT_EQ(stats.overload.faulted, 0u);
  EXPECT_EQ(stats.packets, count_delivered(outputs) + stats.drops);
  // The restored instance starts from config, not state: it has seen
  // strictly fewer packets than the whole run.
  const auto& monitor = static_cast<const nf::Monitor&>(injector.inner());
  EXPECT_LT(monitor.packets_processed(), packets.size());
}

TEST(FaultInjection, ShardedCrashAndRestoreUnderThreads) {
  // The TSan-relevant shape: four shard workers, each with its own
  // injector crashing on its own schedule, while the dispatcher keeps
  // pushing. No packet loss, no race, exact accounting.
  FaultSpec spec;
  // ~10 flows record per shard (40 flows over 4 shards): crash early
  // enough that most shards hit it.
  spec.crash_at = 5;
  auto prototype = make_faulty_chain(spec);
  ShardedRuntime runtime{*prototype, 4,
                         {platform::PlatformKind::kBess, /*speedybox=*/true}};
  Executor& executor = runtime;
  const std::vector<net::Packet> packets = workload_packets();
  const RunStats& stats = executor.run(packets, nullptr);

  EXPECT_EQ(stats.packets, packets.size());
  std::uint64_t crashes = 0;
  for (std::size_t s = 0; s < runtime.shard_count(); ++s) {
    crashes += injector_of(runtime.shard_chain(s)).crashes();
  }
  EXPECT_GT(crashes, 0u) << "at least one shard recorded 5+ flows";
}

}  // namespace
}  // namespace speedybox::runtime
