// Differential equivalence of LIVE RESHARDING (DESIGN.md §10): the same
// workload through a static single-threaded ChainRunner and through a
// sharded runtime that scales up, scales down, or oscillates MID-TRACE on
// a fixed packet schedule. If the quiescence protocol, the per-NF
// export/import pairs, and the consolidated-rule handoff are correct, the
// elastic runs are byte-identical per input index to the static reference
// — migrated flows keep their NAT ports, backend assignments, verdicts,
// candidate rule groups and counters, and take the identical fast path on
// their new shard.
//
// The schedules bypass the hysteresis policy and call control::reshard
// directly from the scale hook, so the reshard points are exact packet
// indices — deterministic across batch sizes (quiescence flushes partial
// staging) and repeatable in CI.
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "control/flow_migration.hpp"
#include "nf/monitor.hpp"
#include "runtime/executor.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::chain1_workload;
using speedybox::testing::chain2_workload;
using speedybox::testing::make_chain1;
using speedybox::testing::make_chain2;
using speedybox::testing::same_bytes;

std::vector<net::Packet> materialize_all(const trace::Workload& workload) {
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

struct Reference {
  std::vector<PacketOutcome> outcomes;
  std::vector<net::Packet> packets;
  std::uint64_t drops = 0;
};

Reference run_reference(const std::vector<net::Packet>& packets,
                        std::unique_ptr<ServiceChain> chain) {
  ChainRunner runner{*chain, {platform::PlatformKind::kBess, true}};
  Reference ref;
  ref.outcomes.reserve(packets.size());
  ref.packets.reserve(packets.size());
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    ref.outcomes.push_back(runner.process_packet(packet));
    if (ref.outcomes.back().dropped) ++ref.drops;
    ref.packets.push_back(std::move(packet));
  }
  return ref;
}

void expect_index_identical(const Reference& ref,
                            const ShardedRunResult& sharded) {
  ASSERT_EQ(sharded.outcomes.size(), ref.outcomes.size());
  ASSERT_EQ(sharded.packets.size(), ref.packets.size());
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    EXPECT_EQ(sharded.outcomes[i].initial, ref.outcomes[i].initial)
        << "initial flag, packet " << i;
    EXPECT_EQ(sharded.outcomes[i].dropped, ref.outcomes[i].dropped)
        << "dropped flag, packet " << i;
    EXPECT_EQ(sharded.outcomes[i].fast_path, ref.outcomes[i].fast_path)
        << "fast-path flag, packet " << i;
    ASSERT_TRUE(same_bytes(sharded.packets[i], ref.packets[i]))
        << "packet " << i << " bytes differ";
  }
  EXPECT_EQ(sharded.stats.drops, ref.drops);
  EXPECT_EQ(sharded.stats.packets, ref.outcomes.size());
}

/// A deterministic reshard schedule: at exactly `pushed-packet count` →
/// resize to `target shards`. Driven through the runtime's scale hook at
/// the schedule's granularity, bypassing the hysteresis policy.
using Schedule = std::map<std::uint64_t, std::size_t>;
constexpr std::uint64_t kHookInterval = 64;

/// Run `packets` through an elastic runtime executing `schedule`, return
/// the merged result plus the total flows migrated (so tests can assert
/// the schedule actually exercised migration).
struct ElasticRun {
  ShardedRunResult result;
  std::uint64_t migrated_flows = 0;
  std::size_t reshards = 0;
};

ElasticRun run_elastic(const std::vector<net::Packet>& packets,
                       const std::function<std::unique_ptr<ServiceChain>()>&
                           factory,
                       std::size_t start_shards, const Schedule& schedule,
                       std::size_t batch_size) {
  auto prototype = factory();
  RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = batch_size;
  ShardedRuntime runtime{*prototype, start_shards, config};
  ElasticRun elastic;
  runtime.set_scale_hook(
      [&schedule, &elastic](ShardedRuntime& rt) {
        const auto it = schedule.find(rt.pushed());
        if (it == schedule.end()) return;
        const control::ReshardReport report =
            control::reshard(rt, it->second);
        elastic.migrated_flows += report.migrated_flows;
        ++elastic.reshards;
      },
      kHookInterval);
  Executor& executor = runtime;
  std::vector<net::Packet> outputs;
  executor.run(packets, &outputs);
  elastic.result = runtime.last_result();
  elastic.result.packets = std::move(outputs);
  return elastic;
}

void run_schedule_differential(
    const trace::Workload& workload,
    const std::function<std::unique_ptr<ServiceChain>()>& factory,
    std::size_t start_shards, const Schedule& schedule) {
  const std::vector<net::Packet> packets = materialize_all(workload);
  for (const auto& [at, target] : schedule) {
    ASSERT_LT(at, packets.size())
        << "schedule point past the end of the trace";
    ASSERT_EQ(at % kHookInterval, 0u)
        << "schedule point off the hook cadence";
    (void)target;
  }
  const Reference ref = run_reference(packets, factory());
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{32}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    const ElasticRun elastic =
        run_elastic(packets, factory, start_shards, schedule, batch_size);
    EXPECT_EQ(elastic.reshards, schedule.size());
    EXPECT_GT(elastic.migrated_flows, 0u)
        << "schedule migrated nothing — the test proves less than it claims";
    expect_index_identical(ref, elastic.result);
  }
}

// --- Chain 1: NAT -> Maglev -> Monitor -> IpFilter ------------------------

TEST(AutoscaleEquivalence, Chain1ScaleUpMidTrace) {
  run_schedule_differential(chain1_workload(), make_chain1, 1,
                            {{256, 2}, {512, 4}});
}

TEST(AutoscaleEquivalence, Chain1ScaleDownMidTrace) {
  run_schedule_differential(chain1_workload(), make_chain1, 4,
                            {{256, 2}, {512, 1}});
}

TEST(AutoscaleEquivalence, Chain1Oscillating) {
  run_schedule_differential(chain1_workload(), make_chain1, 1,
                            {{128, 2}, {256, 1}, {384, 3}, {512, 2}});
}

// --- Chain 2: IpFilter -> Snort -> Monitor (drops + alerts live) ----------

TEST(AutoscaleEquivalence, Chain2ScaleUpMidTrace) {
  run_schedule_differential(chain2_workload(), make_chain2, 1,
                            {{256, 2}, {512, 4}});
}

TEST(AutoscaleEquivalence, Chain2ScaleDownMidTrace) {
  run_schedule_differential(chain2_workload(), make_chain2, 4,
                            {{256, 2}, {512, 1}});
}

TEST(AutoscaleEquivalence, Chain2Oscillating) {
  run_schedule_differential(chain2_workload(), make_chain2, 1,
                            {{128, 2}, {256, 1}, {384, 3}, {512, 2}});
}

// --- State partition across an oscillating run ----------------------------

TEST(AutoscaleEquivalence, MonitorStateStaysAPartitionAcrossReshards) {
  // Monitor's export MOVES its counters with the flow, so after any
  // sequence of reshards the union of the per-shard counter maps — retired
  // replicas included — must still equal what one global instance holds,
  // with no key counted twice.
  const trace::Workload workload = chain1_workload();
  const std::vector<net::Packet> packets = materialize_all(workload);

  auto global_chain = make_chain1();
  auto* global_monitor = dynamic_cast<nf::Monitor*>(&global_chain->nf(2));
  ASSERT_NE(global_monitor, nullptr);
  ChainRunner runner{*global_chain,
                     {platform::PlatformKind::kBess, true}};
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    runner.process_packet(packet);
  }

  auto prototype = make_chain1();
  ShardedRuntime runtime{*prototype, 1,
                         {platform::PlatformKind::kBess, true}};
  const Schedule schedule{{128, 3}, {320, 1}, {512, 4}};
  runtime.set_scale_hook(
      [&schedule](ShardedRuntime& rt) {
        const auto it = schedule.find(rt.pushed());
        if (it != schedule.end()) control::reshard(rt, it->second);
      },
      kHookInterval);
  runtime.run_packets(packets);

  std::size_t sharded_flow_count = 0;
  for (std::size_t s = 0; s < runtime.shard_count(); ++s) {
    auto* shard_monitor =
        dynamic_cast<nf::Monitor*>(&runtime.shard_chain(s).nf(2));
    ASSERT_NE(shard_monitor, nullptr);
    shard_monitor->for_each_flow(
        [&](const net::FiveTuple& tuple, const nf::FlowCounters& counters) {
          ++sharded_flow_count;
          const nf::FlowCounters* global = global_monitor->counters_of(tuple);
          ASSERT_NE(global, nullptr) << tuple.to_string();
          EXPECT_EQ(counters, *global) << tuple.to_string();
        });
  }
  EXPECT_EQ(sharded_flow_count, global_monitor->flow_count());
}

}  // namespace
}  // namespace speedybox::runtime
