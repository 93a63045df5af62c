// The platform cycle model (RunConfig::cycle_model) changes no byte: on the
// runner and the 2-shard runtime, in original and SpeedyBox mode, on both
// §VII-C chains at batch 1 and 32, a run with the model and a run without
// it give the same output bytes, drop verdicts, counters, classifier counts
// and NF counters. Without the model the run keeps no modeled value at all; with it
// every modeled value is filled.
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::nf_at;
using speedybox::testing::same_bytes;

enum class Shape { kRunner, kSharded2 };

/// One run: the packets post-chain and their outcomes in input order, the
/// stats, and the classifier counts and NF counters summed over the run's
/// chains (the state functions' effects, which no byte shows).
struct ModelRun {
  std::vector<net::Packet> packets;
  std::vector<PacketOutcome> outcomes;
  RunStats stats;
  std::uint64_t initial = 0;
  std::uint64_t subsequent = 0;
  std::vector<std::uint64_t> nf_counters;

  void absorb(ServiceChain& chain, bool chain1) {
    initial += chain.classifier().initial_count();
    subsequent += chain.classifier().subsequent_count();
    const auto& monitor = nf_at<nf::Monitor>(chain, 2);
    std::vector<std::uint64_t> counters{monitor.total_packets(),
                                        monitor.total_bytes()};
    if (chain1) {
      counters.push_back(nf_at<nf::MazuNat>(chain, 0).translations());
    } else {
      const auto& snort = nf_at<nf::SnortIds>(chain, 1);
      counters.insert(counters.end(), {snort.alert_count(), snort.log_count(),
                                       snort.pass_count()});
    }
    nf_counters.resize(counters.size(), 0);
    for (std::size_t i = 0; i < counters.size(); ++i) {
      nf_counters[i] += counters[i];
    }
  }
};

std::vector<net::Packet> packets_of(const trace::Workload& workload) {
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

ModelRun run(Shape shape, bool chain1, bool speedybox,
             std::size_t batch_size, bool cycle_model) {
  const trace::Workload workload = chain1
                                       ? speedybox::testing::chain1_workload()
                                       : speedybox::testing::chain2_workload();
  auto chain = chain1 ? speedybox::testing::make_chain1()
                      : speedybox::testing::make_chain2();
  RunConfig config{platform::PlatformKind::kBess, speedybox};
  config.batch_size = batch_size;
  config.cycle_model = cycle_model;

  ModelRun result;
  result.packets = packets_of(workload);
  if (shape == Shape::kRunner) {
    ChainRunner runner{*chain, config};
    net::PacketBatch batch{batch_size};
    std::vector<PacketOutcome> outcomes;
    for (std::size_t offset = 0; offset < result.packets.size();
         offset += batch_size) {
      batch.clear();
      const std::size_t end =
          std::min(result.packets.size(), offset + batch_size);
      for (std::size_t k = offset; k < end; ++k) {
        batch.push(&result.packets[k]);
      }
      runner.process_batch(batch, outcomes);
      result.outcomes.insert(result.outcomes.end(), outcomes.begin(),
                             outcomes.end());
    }
    result.stats = runner.stats();
    result.absorb(*chain, chain1);
    return result;
  }
  ShardedRuntime sharded{*chain, 2, config};
  ShardedRunResult out = sharded.run_packets(result.packets);
  result.packets = std::move(out.packets);
  result.outcomes = std::move(out.outcomes);
  result.stats = out.stats;
  for (std::size_t k = 0; k < sharded.shard_count(); ++k) {
    result.absorb(sharded.shard_chain(k), chain1);
  }
  return result;
}

void expect_same_overload(const OverloadStats& a, const OverloadStats& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed_admission, b.shed_admission);
  EXPECT_EQ(a.shed_watermark, b.shed_watermark);
  EXPECT_EQ(a.shed_early_drop, b.shed_early_drop);
  EXPECT_EQ(a.faulted, b.faulted);
  EXPECT_EQ(a.degraded_flows, b.degraded_flows);
  EXPECT_EQ(a.degraded_packets, b.degraded_packets);
  EXPECT_EQ(a.degraded_episodes, b.degraded_episodes);
  EXPECT_EQ(a.degraded_episode_packets, b.degraded_episode_packets);
}

void expect_no_model(const ModelRun& run) {
  const RunStats& stats = run.stats;
  EXPECT_EQ(stats.latency_cycles_initial.count(), 0u);
  EXPECT_EQ(stats.latency_cycles_subsequent.count(), 0u);
  EXPECT_EQ(stats.latency_cycles_subsequent_sequential.count(), 0u);
  EXPECT_EQ(stats.platform_cycles_initial.count(), 0u);
  EXPECT_EQ(stats.platform_cycles_subsequent.count(), 0u);
  EXPECT_TRUE(stats.per_nf_cycle_sum.empty());
  EXPECT_TRUE(stats.per_nf_cycle_count.empty());
  EXPECT_TRUE(stats.stage_cycle_sum.empty());
  EXPECT_TRUE(stats.stage_cycle_count.empty());
  EXPECT_EQ(stats.rate_mpps(platform::PlatformKind::kBess), 0.0);
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    const PacketOutcome& outcome = run.outcomes[i];
    ASSERT_EQ(outcome.work_cycles, 0u) << "packet " << i;
    ASSERT_EQ(outcome.platform_cycles, 0u) << "packet " << i;
    ASSERT_EQ(outcome.latency_cycles, 0u) << "packet " << i;
    ASSERT_EQ(outcome.latency_cycles_sequential, 0u) << "packet " << i;
  }
}

void expect_model(const ModelRun& run, bool speedybox) {
  const RunStats& stats = run.stats;
  EXPECT_EQ(stats.latency_cycles_all().count(), stats.packets);
  EXPECT_EQ(stats.platform_cycles_initial.count() +
                stats.platform_cycles_subsequent.count(),
            stats.packets);
  EXPECT_GT(stats.latency_cycles_subsequent.count(), 0u);
  std::uint64_t fast_path = 0;
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    const PacketOutcome& outcome = run.outcomes[i];
    ASSERT_GT(outcome.latency_cycles, 0u) << "packet " << i;
    ASSERT_GT(outcome.platform_cycles, 0u) << "packet " << i;
    if (outcome.fast_path) {
      ++fast_path;
      ASSERT_GT(outcome.latency_cycles_sequential, 0u) << "packet " << i;
    }
  }
  EXPECT_EQ(stats.latency_cycles_subsequent_sequential.count(), fast_path);
  EXPECT_FALSE(stats.stage_cycle_sum.empty());
  EXPECT_GT(stats.rate_mpps(platform::PlatformKind::kBess), 0.0);
  if (!speedybox) {
    ASSERT_FALSE(stats.per_nf_cycle_count.empty());
    EXPECT_GT(stats.per_nf_cycle_count.front(), 0u);
    EXPECT_GT(stats.per_nf_mean_cycles().front(), 0.0);
  }
}

using Param = std::tuple<Shape, bool /*chain1*/, bool /*speedybox*/,
                         std::size_t /*batch*/>;

class CycleModel : public ::testing::TestWithParam<Param> {};

TEST_P(CycleModel, ChangesNoByteAndIsEmptyWhenOff) {
  const auto [shape, chain1, speedybox, batch] = GetParam();
  const ModelRun off = run(shape, chain1, speedybox, batch, false);
  const ModelRun on = run(shape, chain1, speedybox, batch, true);

  ASSERT_EQ(off.packets.size(), on.packets.size());
  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  ASSERT_EQ(off.outcomes.size(), off.packets.size());
  for (std::size_t i = 0; i < off.packets.size(); ++i) {
    ASSERT_TRUE(same_bytes(off.packets[i], on.packets[i])) << "packet " << i;
    ASSERT_EQ(off.packets[i].dropped(), on.packets[i].dropped())
        << "packet " << i;
    const PacketOutcome& a = off.outcomes[i];
    const PacketOutcome& b = on.outcomes[i];
    ASSERT_EQ(a.dropped, b.dropped) << "packet " << i;
    ASSERT_EQ(a.fast_path, b.fast_path) << "packet " << i;
    ASSERT_EQ(a.shed, b.shed) << "packet " << i;
    ASSERT_EQ(a.faulted, b.faulted) << "packet " << i;
    ASSERT_EQ(a.degraded, b.degraded) << "packet " << i;
    ASSERT_EQ(a.events_triggered, b.events_triggered) << "packet " << i;
    // The original path has no classifier: its init/sub tagging is the
    // model's own.
    if (speedybox) {
      ASSERT_EQ(a.initial, b.initial) << "packet " << i;
    }
  }
  EXPECT_EQ(off.stats.packets, on.stats.packets);
  EXPECT_EQ(off.stats.packets, off.packets.size());
  EXPECT_EQ(off.stats.drops, on.stats.drops);
  EXPECT_EQ(off.stats.events_triggered, on.stats.events_triggered);
  expect_same_overload(off.stats.overload, on.stats.overload);
  EXPECT_EQ(off.initial, on.initial);
  EXPECT_EQ(off.subsequent, on.subsequent);
  EXPECT_EQ(off.nf_counters, on.nf_counters);
  EXPECT_GT(off.nf_counters.front(), 0u) << "the monitor saw packets";
  if (speedybox) {
    EXPECT_GT(off.initial, 0u);
  }

  expect_no_model(off);
  expect_model(on, speedybox);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [shape, chain1, speedybox, batch] = info.param;
  return std::string(shape == Shape::kRunner ? "Runner" : "Sharded2") +
         (chain1 ? "Chain1" : "Chain2") +
         (speedybox ? "SpeedyBox" : "Original") + "Batch" +
         std::to_string(batch);
}

INSTANTIATE_TEST_SUITE_P(
    EveryShape, CycleModel,
    ::testing::Combine(::testing::Values(Shape::kRunner, Shape::kSharded2),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{32})),
    param_name);

/// Attached telemetry times the work layers without the model: its
/// histograms fill while the run keeps no modeled value.
TEST(CycleModelTelemetry, WorkTimersRunWithTheModelOff) {
  for (const bool speedybox : {true, false}) {
    auto chain = speedybox::testing::make_chain1();
    telemetry::Registry registry;
    ChainRunner runner{*chain, {platform::PlatformKind::kBess, speedybox}};
    runner.attach_telemetry(&registry, "model-off");
    const RunStats& stats =
        runner.run(packets_of(speedybox::testing::chain1_workload()),
                   nullptr);
    EXPECT_EQ(stats.latency_cycles_all().count(), 0u);
    EXPECT_EQ(stats.rate_mpps(platform::PlatformKind::kBess), 0.0);

    const telemetry::ShardSnapshot total = registry.snapshot().aggregate();
    std::uint64_t slow = 0;
    std::uint64_t fast = 0;
    for (const auto& [name, hist] : total.histograms) {
      if (name == "slowpath_cycles") slow = hist.count();
      if (name == "fastpath_cycles") fast = hist.count();
    }
    EXPECT_GT(slow, 0u) << (speedybox ? "speedybox" : "original");
    if (speedybox) {
      EXPECT_GT(fast, 0u);
    }
  }
}

/// Only the model times the state functions apart from the header action,
/// so a sampled fast-path span splits the two only with the model on;
/// without it the span carries the fast path's total alone.
TEST(CycleModelTelemetry, FastPathSpansSplitOnlyWithTheModel) {
  for (const bool cycle_model : {false, true}) {
    auto chain = speedybox::testing::make_chain1();
    telemetry::Registry registry{/*span_sample_every_n=*/1};
    RunConfig config{platform::PlatformKind::kBess, true};
    config.cycle_model = cycle_model;
    ChainRunner runner{*chain, config};
    runner.attach_telemetry(&registry, "spans");
    runner.run(packets_of(speedybox::testing::chain1_workload()), nullptr);

    std::size_t fast_spans = 0;
    for (const telemetry::PacketSpan& span :
         registry.snapshot().aggregate().spans) {
      if (!span.fast_path) continue;
      ++fast_spans;
      std::size_t header = 0;
      std::size_t state = 0;
      for (const telemetry::SpanEvent& event : span.events) {
        if (event.stage == telemetry::SpanStage::kHeaderAction) ++header;
        if (event.stage == telemetry::SpanStage::kStateFunctions) ++state;
      }
      ASSERT_EQ(header, cycle_model ? 1u : 0u) << "model " << cycle_model;
      if (!cycle_model) {
        ASSERT_EQ(state, 0u);
      }
    }
    EXPECT_GT(fast_spans, 0u) << "model " << cycle_model;
  }
}

}  // namespace
}  // namespace speedybox::runtime
