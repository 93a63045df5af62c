// Telemetry overhead guard on the §VII-C chain (Snort + Monitor).
//
// Two properties:
//   1. Attaching telemetry must not change what a run computes — hooks only
//      re-record values the runner already measured, so packet/drop/event
//      counts are bit-identical with and without a sink, and the sink's
//      counters agree with the runner's own stats.
//   2. The disabled path (sink detached, every hook one null-pointer test)
//      must stay within noise of the instrumented path's cost envelope. We
//      take the min wall time over several repetitions for each mode and
//      assert a deliberately generous bound — this is a regression tripwire
//      for someone putting real work on the hook path, not a microbenchmark.
#include <algorithm>
#include <chrono>
#include <cstdint>

#include <gtest/gtest.h>

#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "runtime/runner.hpp"
#include "telemetry/metrics.hpp"
#include "trace/payload_synth.hpp"
#include "trace/workload.hpp"

namespace speedybox::telemetry {
namespace {

struct RunResult {
  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;
};

trace::Workload make_workload() {
  trace::Workload workload =
      trace::make_uniform_workload(/*flow_count=*/32,
                                   /*packets_per_flow=*/150,
                                   /*payload_size=*/64);
  trace::PayloadSynthConfig synth;
  synth.match_fraction = 0.2;
  plant_rule_contents(workload, trace::default_snort_rules(), synth);
  return workload;
}

RunResult run_once(const trace::Workload& workload, Registry* registry,
                   std::size_t batch_size = net::kDefaultBatchSize) {
  runtime::ServiceChain chain;
  chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  chain.emplace_nf<nf::Monitor>(nf::MonitorConfig::heavy(), "monitor");
  runtime::RunConfig config;
  config.batch_size = batch_size;
  runtime::ChainRunner runner{chain, config};
  ShardMetrics* metrics = nullptr;
  if (registry != nullptr) {
    metrics = &registry->create_shard("shard0", chain.nf_names());
    runner.set_telemetry(metrics);
  }
  const auto start = std::chrono::steady_clock::now();
  const runtime::RunStats& stats = runner.run(workload);
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.packets = stats.packets;
  result.drops = stats.drops;
  result.events = stats.events_triggered;
  result.seconds = std::chrono::duration<double>(end - start).count();
  if (metrics != nullptr) {
    // The sink's view must agree with the runner's own accounting.
    EXPECT_EQ(metrics->packets.get(), stats.packets);
    EXPECT_EQ(metrics->drops.get(), stats.drops);
    EXPECT_EQ(metrics->mat_hits.get(), chain.classifier().subsequent_count());
    EXPECT_EQ(metrics->mat_misses.get(), chain.classifier().initial_count());
  }
  return result;
}

TEST(TelemetryOverhead, AttachedRunComputesIdenticalResults) {
  const trace::Workload workload = make_workload();
  const RunResult detached = run_once(workload, nullptr);
  Registry registry{/*span_sample_every_n=*/16};
  const RunResult attached = run_once(workload, &registry);

  EXPECT_EQ(detached.packets, workload.packet_count());
  EXPECT_EQ(attached.packets, detached.packets);
  EXPECT_EQ(attached.drops, detached.drops);
  EXPECT_EQ(attached.events, detached.events);
}

TEST(TelemetryOverhead, BatchedPathIdenticalAcrossAttachAndBatchSize) {
  // The §VII-C guard extended to the vector data path: counts must be
  // identical detached vs attached AND scalar (batch=1) vs batched
  // (batch=32); the attached batched run must additionally fill the
  // batch_occupancy histogram (one sample per process_batch call).
  const trace::Workload workload = make_workload();
  const RunResult scalar_detached =
      run_once(workload, nullptr, /*batch_size=*/1);
  const RunResult batched_detached =
      run_once(workload, nullptr, /*batch_size=*/32);
  Registry registry{/*span_sample_every_n=*/16};
  const RunResult batched_attached =
      run_once(workload, &registry, /*batch_size=*/32);

  EXPECT_EQ(scalar_detached.packets, workload.packet_count());
  EXPECT_EQ(batched_detached.packets, scalar_detached.packets);
  EXPECT_EQ(batched_detached.drops, scalar_detached.drops);
  EXPECT_EQ(batched_detached.events, scalar_detached.events);
  EXPECT_EQ(batched_attached.packets, batched_detached.packets);
  EXPECT_EQ(batched_attached.drops, batched_detached.drops);
  EXPECT_EQ(batched_attached.events, batched_detached.events);

  const ShardSnapshot snap = registry.snapshot().shards.at(0);
  const auto occupancy = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& entry) { return entry.first == "batch_occupancy"; });
  ASSERT_NE(occupancy, snap.histograms.end());
  EXPECT_GE(occupancy->second.count(),
            workload.packet_count() / 32)
      << "one occupancy sample per process_batch call";
}

TEST(TelemetryOverhead, DisabledPathWithinNoiseOfEnabled) {
  const trace::Workload workload = make_workload();
  constexpr int kRepetitions = 5;
  double detached_best = 1e9;
  double attached_best = 1e9;
  for (int i = 0; i < kRepetitions; ++i) {
    detached_best = std::min(detached_best,
                             run_once(workload, nullptr).seconds);
    Registry registry{/*span_sample_every_n=*/16};
    attached_best = std::min(attached_best,
                             run_once(workload, &registry).seconds);
  }
  // Generous bound: min-of-N attached within 2x of min-of-N detached, plus
  // an absolute 2 ms floor so sub-millisecond runs can't flake on scheduler
  // jitter. Trips only if the hook path gains real per-packet work.
  EXPECT_LE(attached_best, detached_best * 2.0 + 0.002)
      << "attached " << attached_best << "s vs detached " << detached_best
      << "s";
  // And the symmetric direction: detaching must not somehow be slower than
  // the instrumented run by more than the same envelope.
  EXPECT_LE(detached_best, attached_best * 2.0 + 0.002)
      << "detached " << detached_best << "s vs attached " << attached_best
      << "s";
}

}  // namespace
}  // namespace speedybox::telemetry
