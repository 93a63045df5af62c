// Telemetry counts have one owner. Every executor shape publishes the
// counts RunStats, the overload gate, the classifier and the flow tables
// keep, instead of counting them a second time: after drain(), each
// published cell equals its owner's value. Chain 1 on 2000 datacenter flows under a 2x overload
// with per-flow-fair shedding (so flows degrade), plus one packet the
// classifier refuses, while a second thread snapshots the registry
// throughout (tools/run_sanitizers.sh runs this under TSan).
#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "telemetry/metrics.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

enum class Shape { kRunner, kSharded, kPipeline };

/// The datacenter chain-1 input, with a checksum-corrupted copy of one
/// packet in the middle: the SpeedyBox classifier refuses it, the original
/// chain processes it.
std::vector<net::Packet> probe_packets() {
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 2000;
  const trace::Workload workload = trace::make_datacenter_workload(config);
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count() + 1);
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  const std::size_t middle = packets.size() / 2;
  net::Packet corrupt = packets[middle];
  const auto parsed = net::parse_packet(corrupt);
  corrupt.bytes()[parsed->l3_offset + 10] ^= 0xFF;  // IPv4 header checksum
  packets.insert(packets.begin() + static_cast<std::ptrdiff_t>(middle),
                 std::move(corrupt));
  return packets;
}

std::uint64_t value_of(
    const std::vector<std::pair<std::string, std::uint64_t>>& cells,
    std::string_view name) {
  for (const auto& [key, value] : cells) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no cell " << name;
  return 0;
}

using Param = std::tuple<Shape, bool>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [shape, speedybox] = info.param;
  const std::string mode = speedybox ? "SpeedyBox" : "Original";
  switch (shape) {
    case Shape::kRunner:
      return "Runner" + mode;
    case Shape::kSharded:
      return "Sharded2" + mode;
    case Shape::kPipeline:
      return "Pipeline" + mode;
  }
  return mode;
}

class TelemetryCounts : public ::testing::TestWithParam<Param> {};

TEST_P(TelemetryCounts, PublishedCellsEqualTheirOwners) {
  const auto [shape, speedybox] = GetParam();
  RunConfig config{platform::PlatformKind::kBess, speedybox};
  config.overload.enabled = true;
  config.overload.offered_load = 2.0;
  config.overload.policy = DropPolicy::kPerFlowFair;
  config.overload.queue_capacity = 256;

  telemetry::Registry registry;
  auto chain = testing::make_chain1();
  std::unique_ptr<Executor> executor;
  ShardedRuntime* sharded = nullptr;
  switch (shape) {
    case Shape::kRunner:
      executor = std::make_unique<ChainRunner>(*chain, config);
      break;
    case Shape::kSharded:
      executor = std::make_unique<ShardedRuntime>(*chain, 2, config);
      sharded = static_cast<ShardedRuntime*>(executor.get());
      break;
    case Shape::kPipeline:
      executor = std::make_unique<SpeedyBoxPipeline>(*chain, config);
      break;
  }
  executor->attach_telemetry(&registry, "probe");

  // Mid-run reads of the published cells, from another thread.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)registry.snapshot().aggregate();
      std::this_thread::yield();
    }
  });
  const std::vector<net::Packet> packets = probe_packets();
  const RunStats& stats = executor->run(packets, nullptr);
  done.store(true, std::memory_order_release);
  reader.join();

  const telemetry::ShardSnapshot all = registry.snapshot().aggregate();
  const auto counter = [&all](std::string_view name) {
    return value_of(all.counters, name);
  };
  const OverloadStats& overload = stats.overload;
  ASSERT_EQ(overload.offered, packets.size());
  if (speedybox) {
    EXPECT_GT(overload.degraded_flows, 0u) << "the probe must degrade flows";
  }
  EXPECT_EQ(counter("packets"), stats.packets);
  EXPECT_EQ(counter("drops"), stats.drops);
  EXPECT_EQ(counter("events_triggered"), stats.events_triggered);
  EXPECT_EQ(counter("admitted"), overload.admitted);
  // The sharded dispatcher's ring sheds reach RunStats at finish() and
  // telemetry through its own shed_ring cell.
  EXPECT_EQ(counter("shed_watermark") + counter("shed_ring"),
            overload.shed_watermark);
  EXPECT_EQ(counter("shed_early_drop"), overload.shed_early_drop);
  EXPECT_EQ(counter("shed_watermark") + counter("shed_early_drop") +
                counter("shed_ring"),
            overload.shed_total());
  EXPECT_EQ(counter("faulted"), overload.faulted);
  EXPECT_EQ(counter("degraded_flows"), overload.degraded_flows);
  EXPECT_EQ(counter("degraded_packets"), overload.degraded_packets);

  std::vector<ServiceChain*> chains{chain.get()};
  if (sharded != nullptr) {
    chains.clear();
    for (std::size_t k = 0; k < sharded->shard_count(); ++k) {
      chains.push_back(&sharded->shard_chain(k));
    }
  }
  std::uint64_t subsequent = 0;
  std::uint64_t initial = 0;
  std::uint64_t live = 0;
  std::uint64_t entries = 0;
  for (ServiceChain* shard_chain : chains) {
    subsequent += shard_chain->classifier().subsequent_count();
    initial += shard_chain->classifier().initial_count();
    live += shard_chain->classifier().active_flows();
    // The pipeline manager reports the tables it owns: classifier and
    // flow records, which keep no entries of their own.
    entries += shape == Shape::kPipeline
                   ? shard_chain->classifier().table_stats().entries
                   : shard_chain->flow_table_stats().entries;
  }
  EXPECT_EQ(counter("mat_hits"), subsequent);
  EXPECT_EQ(counter("mat_misses"), initial);
  EXPECT_EQ(value_of(all.gauges, "active_flows"), live);
  EXPECT_EQ(value_of(all.gauges, "flow_table_entries"), entries);
}

INSTANTIATE_TEST_SUITE_P(
    EveryShape, TelemetryCounts,
    ::testing::Combine(::testing::Values(Shape::kRunner, Shape::kSharded,
                                         Shape::kPipeline),
                       ::testing::Bool()),
    param_name);

}  // namespace
}  // namespace speedybox::runtime
