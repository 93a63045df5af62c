// Cycle-accounting invariants of the runner: platform cycles vs work
// cycles, the dual (parallel/sequential) latency histograms, the
// adaptive-parallelism guarantee, and the histograms' accuracy against the
// per-packet outcomes they summarize.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nf/monitor.hpp"
#include "nf/synthetic_nf.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::modeled;
using speedybox::testing::tuple_n;

TEST(Accounting, PlatformCyclesIncludePerNfOverhead) {
  platform::PlatformCosts costs;
  costs.bess_hop_cycles = 1000;  // exaggerated to make the check crisp
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  chain.emplace_nf<nf::Monitor>("m2");
  ChainRunner runner{chain, modeled({platform::PlatformKind::kBess, false}),
                     costs};
  net::Packet packet = net::make_tcp_packet(tuple_n(1), "x");
  const PacketOutcome outcome = runner.process_packet(packet);
  EXPECT_GE(outcome.platform_cycles, outcome.work_cycles + 2000)
      << "original path: one hop per NF";
}

TEST(Accounting, FastPathPaysExactlyOneHopPlusRxShare) {
  platform::PlatformCosts costs;
  costs.bess_hop_cycles = 1000;
  costs.rx_burst_fixed_cycles = 640;
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  chain.emplace_nf<nf::Monitor>("m2");
  ChainRunner runner{chain, modeled({platform::PlatformKind::kBess, true}),
                     costs};
  net::Packet first = net::make_tcp_packet(tuple_n(2), "x");
  runner.process_packet(first);
  net::Packet second = net::make_tcp_packet(tuple_n(2), "x");
  const PacketOutcome outcome = runner.process_packet(second);
  EXPECT_FALSE(outcome.initial);
  // Scalar = a burst of one: one hop plus the whole rx fixed cost.
  EXPECT_EQ(outcome.platform_cycles, outcome.work_cycles + 1000 + 640);

  // In a full burst the same packet carries only a 1/N share of the rx
  // cost — the amortization the batch sweep measures.
  net::Packet burst_pkt[4];
  net::PacketBatch batch{4};
  for (auto& p : burst_pkt) {
    p = net::make_tcp_packet(tuple_n(2), "x");
    batch.push(&p);
  }
  std::vector<PacketOutcome> outcomes;
  runner.process_batch(batch, outcomes);
  for (const PacketOutcome& o : outcomes) {
    ASSERT_FALSE(o.initial);
    EXPECT_EQ(o.platform_cycles, o.work_cycles + 1000 + 640 / 4);
  }
}

TEST(Accounting, SequentialLatencyNeverBelowParallel) {
  // Adaptive parallelism: the modeled (parallel) latency can never exceed
  // the sequential accounting of the same packet.
  ServiceChain chain;
  nf::SyntheticNfConfig config;
  config.access = core::PayloadAccess::kRead;
  config.work_iterations = 64;
  chain.emplace_nf<nf::SyntheticNf>(config, "s1");
  chain.emplace_nf<nf::SyntheticNf>(config, "s2");
  ChainRunner runner{chain, modeled({platform::PlatformKind::kBess, true})};

  net::Packet first = net::make_tcp_packet(tuple_n(3), "payload payload");
  runner.process_packet(first);
  for (int i = 0; i < 20; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(3), "payload payload");
    const PacketOutcome outcome = runner.process_packet(packet);
    ASSERT_TRUE(outcome.fast_path);
    ASSERT_LE(outcome.latency_cycles, outcome.latency_cycles_sequential);
  }
  EXPECT_EQ(runner.stats().latency_cycles_subsequent.count(),
            runner.stats().latency_cycles_subsequent_sequential.count());
}

TEST(Accounting, SequentialHistogramEmptyOnOriginalPath) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, modeled({platform::PlatformKind::kBess, false})};
  runner.run(trace::make_uniform_workload(3, 5, 32));
  EXPECT_EQ(runner.stats().latency_cycles_subsequent_sequential.count(), 0u);
}

TEST(Accounting, HistogramsMatchOutcomesWithinBucketError) {
  // RunStats keeps per-packet cycles in LogHistograms: counts are exact,
  // and p50/p99 stay within the histogram's documented 9% relative error
  // of the nearest-rank values of the packets' own outcomes.
  const trace::Workload workload = trace::make_uniform_workload(40, 25, 64);
  for (const bool speedybox : {false, true}) {
    ServiceChain chain;
    chain.emplace_nf<nf::Monitor>();
    chain.emplace_nf<nf::Monitor>("m2");
    ChainRunner runner{chain, modeled({platform::PlatformKind::kBess, speedybox})};

    // Exact references, indexed [initial, subsequent].
    util::SampleRecorder latency[2];
    util::SampleRecorder platform_cycles[2];
    util::SampleRecorder sequential;
    std::vector<net::Packet> local(net::kDefaultBatchSize);
    std::vector<PacketOutcome> outcomes;
    const std::size_t total = workload.packet_count();
    for (std::size_t offset = 0; offset < total;) {
      const std::size_t chunk = std::min(local.size(), total - offset);
      net::PacketBatch batch{local.size()};
      for (std::size_t k = 0; k < chunk; ++k) {
        local[k] = workload.materialize(offset + k);
        batch.push(&local[k]);
      }
      runner.process_batch(batch, outcomes);
      for (const PacketOutcome& outcome : outcomes) {
        const int cls = outcome.initial ? 0 : 1;
        latency[cls].add(static_cast<double>(outcome.latency_cycles));
        platform_cycles[cls].add(static_cast<double>(outcome.platform_cycles));
        if (outcome.fast_path) {
          sequential.add(
              static_cast<double>(outcome.latency_cycles_sequential));
        }
      }
      offset += chunk;
    }

    const RunStats& stats = runner.stats();
    ASSERT_EQ(stats.packets, total);
    const auto expect_close = [](const util::LogHistogram& hist,
                                 const util::SampleRecorder& exact,
                                 const char* what) {
      ASSERT_EQ(hist.count(), exact.count()) << what;
      if (exact.empty()) return;
      for (const double p : {50.0, 99.0}) {
        const double want = exact.percentile(p);
        EXPECT_NEAR(hist.percentile(p), want, 0.09 * want)
            << what << " p" << p;
      }
    };
    expect_close(stats.latency_cycles_initial, latency[0], "latency initial");
    expect_close(stats.latency_cycles_subsequent, latency[1],
                 "latency subsequent");
    expect_close(stats.platform_cycles_initial, platform_cycles[0],
                 "platform initial");
    expect_close(stats.platform_cycles_subsequent, platform_cycles[1],
                 "platform subsequent");
    expect_close(stats.latency_cycles_subsequent_sequential, sequential,
                 "latency subsequent sequential");
    EXPECT_EQ(stats.latency_cycles_all().count(), total);
    EXPECT_EQ(latency[0].count(), 40u);
    EXPECT_EQ(sequential.count(), speedybox ? total - 40 : 0u);
  }
}

TEST(Accounting, LatencyAtLeastPlatformMinusParallelOverlap) {
  // With no state functions there is nothing to overlap: latency equals
  // platform cycles on BESS.
  ServiceChain chain;
  chain.emplace_nf<nf::SyntheticNf>(
      nf::SyntheticNfConfig{0, core::PayloadAccess::kIgnore, std::nullopt},
      "noop");
  ChainRunner runner{chain, modeled({platform::PlatformKind::kBess, true})};
  net::Packet first = net::make_tcp_packet(tuple_n(4), "x");
  runner.process_packet(first);
  net::Packet second = net::make_tcp_packet(tuple_n(4), "x");
  const PacketOutcome outcome = runner.process_packet(second);
  EXPECT_EQ(outcome.latency_cycles, outcome.platform_cycles);
}

TEST(Accounting, OnvmStageSamplesSplitFrontEndAndStateFunctions) {
  ServiceChain chain;
  nf::SyntheticNfConfig config;
  config.access = core::PayloadAccess::kRead;
  config.work_iterations = 64;
  chain.emplace_nf<nf::SyntheticNf>(config, "s1");
  ChainRunner runner{chain, modeled({platform::PlatformKind::kOnvm, true})};
  runner.run(trace::make_uniform_workload(4, 20, 64));
  // Stage 0 = classifier+serial front end, stage 1 = state functions.
  ASSERT_GE(runner.stats().stage_cycle_sum.size(), 2u);
  EXPECT_GT(runner.stats().stage_cycle_count[0], 0u);
  EXPECT_GT(runner.stats().stage_cycle_count[1], 0u);
}

}  // namespace
}  // namespace speedybox::runtime
