#include "telemetry/metrics.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace speedybox::telemetry {
namespace {

TEST(RelaxedCell, AddSetGet) {
  RelaxedCell cell;
  EXPECT_EQ(cell.get(), 0u);
  cell.add();
  cell.add(41);
  EXPECT_EQ(cell.get(), 42u);
  cell.set(7);
  EXPECT_EQ(cell.get(), 7u);
}

TEST(CycleHistogram, SnapshotMatchesDirectLogHistogram) {
  CycleHistogram cycles;
  util::LogHistogram direct;
  for (const std::uint64_t v : {1u, 10u, 100u, 1000u, 65536u}) {
    cycles.record(v);
    direct.add(static_cast<double>(v));
  }
  const util::LogHistogram snap = cycles.snapshot();
  EXPECT_EQ(snap.count(), direct.count());
  EXPECT_DOUBLE_EQ(snap.mean(), direct.mean());
  for (const double p : {50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(snap.percentile(p), direct.percentile(p));
  }
}

TEST(Registry, CreateShardAndSnapshot) {
  Registry registry{/*span_sample_every_n=*/4};
  ShardMetrics& shard =
      registry.create_shard("shard0", {"nat", "monitor"});
  EXPECT_EQ(shard.label, "shard0");
  ASSERT_EQ(shard.per_nf.size(), 2u);
  EXPECT_EQ(shard.per_nf[0].label, "nat");
  EXPECT_TRUE(shard.spans.enabled());

  shard.packets.add(5);
  shard.mat_hits.add(3);
  shard.ring_occupancy.set(17);
  shard.per_nf[1].packets.add(2);
  shard.per_nf[1].cycles.record(250);
  shard.fastpath_cycles.record(100);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.shards.size(), 1u);
  const ShardSnapshot& s = snap.shards[0];
  EXPECT_EQ(s.label, "shard0");
  const auto counter = [&s](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : s.counters) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("packets"), 5u);
  EXPECT_EQ(counter("mat_hits"), 3u);
  EXPECT_EQ(counter("drops"), 0u);
  ASSERT_EQ(s.per_nf.size(), 2u);
  EXPECT_EQ(s.per_nf[1].packets, 2u);
  EXPECT_EQ(s.per_nf[1].cycles.count(), 1u);
  bool found_gauge = false;
  for (const auto& [key, value] : s.gauges) {
    if (key == "ring_occupancy") {
      EXPECT_EQ(value, 17u);
      found_gauge = true;
    }
  }
  EXPECT_TRUE(found_gauge);
}

TEST(Registry, SnapshotSequenceIsMonotonic) {
  Registry registry;
  registry.create_shard("s");
  EXPECT_EQ(registry.snapshot().sequence, 0u);
  EXPECT_EQ(registry.snapshot().sequence, 1u);
  EXPECT_EQ(registry.snapshot().sequence, 2u);
}

TEST(MetricsSnapshot, AggregateSumsAndMerges) {
  Registry registry;
  ShardMetrics& a = registry.create_shard("shard0", {"nf"});
  ShardMetrics& b = registry.create_shard("shard1", {"nf"});
  a.packets.add(10);
  b.packets.add(32);
  a.fastpath_cycles.record(100);
  b.fastpath_cycles.record(100);
  a.per_nf[0].packets.add(1);
  b.per_nf[0].packets.add(2);

  const ShardSnapshot total = registry.snapshot().aggregate();
  for (const auto& [name, value] : total.counters) {
    if (name == "packets") {
      EXPECT_EQ(value, 42u);
    }
  }
  for (const auto& [name, hist] : total.histograms) {
    if (name == "fastpath_cycles") {
      EXPECT_EQ(hist.count(), 2u);
    }
  }
  ASSERT_EQ(total.per_nf.size(), 1u);
  EXPECT_EQ(total.per_nf[0].packets, 3u);
}

TEST(MetricsSnapshot, AggregateTakesTheWorstProbe) {
  // A worst probe sequence merges as core::FlowTableStats does: the max,
  // while the other gauges still sum.
  Registry registry;
  ShardMetrics& a = registry.create_shard("shard0");
  ShardMetrics& b = registry.create_shard("shard1");
  a.flow_table_max_probe.set(7);
  b.flow_table_max_probe.set(9);
  a.flow_table_entries.set(3);
  b.flow_table_entries.set(4);

  const ShardSnapshot total = registry.snapshot().aggregate();
  for (const auto& [name, value] : total.gauges) {
    if (name == "flow_table_max_probe") {
      EXPECT_EQ(value, 9u);
    } else if (name == "flow_table_entries") {
      EXPECT_EQ(value, 7u);
    }
  }
}

// The single-writer/any-reader contract: one thread hammers the cells of
// its shard while another snapshots concurrently. Values must be torn-free
// and the final snapshot exact. Run under TSan, this is the telemetry
// data-race guard.
TEST(Registry, ConcurrentWriterAndSnapshotReader) {
  Registry registry{/*span_sample_every_n=*/2};
  ShardMetrics& shard = registry.create_shard("shard0", {"nf"});
  constexpr std::uint64_t kIterations = 50000;

  std::thread writer([&shard] {
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      shard.packets.add(1);
      shard.ring_occupancy.set(i);
      shard.fastpath_cycles.record(i % 1024 + 1);
      if (shard.spans.should_sample(i)) {
        shard.spans.begin(i, static_cast<std::uint32_t>(i), i);
        shard.spans.event(SpanStage::kHeaderAction, 10);
        shard.spans.finish(/*fast_path=*/true, /*dropped=*/false, 20);
      }
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const ShardSnapshot snap = registry.snapshot().shards.at(0);
    for (const auto& [name, value] : snap.counters) {
      if (name == "packets") {
        EXPECT_GE(value, last);  // monotonic under concurrent writes
        last = value;
      }
    }
  }
  writer.join();
  const ShardSnapshot final = registry.snapshot().shards.at(0);
  for (const auto& [name, value] : final.counters) {
    if (name == "packets") {
      EXPECT_EQ(value, kIterations);
    }
  }
  EXPECT_EQ(shard.spans.sampled_total(), kIterations / 2);
}

}  // namespace
}  // namespace speedybox::telemetry
