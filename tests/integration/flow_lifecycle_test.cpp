// Flow lifecycle end-to-end (§VI-B): FIN/RST teardown frees the flow's
// record in the Global MAT, its classifier entry and FID, and NF-internal
// state (via teardown hooks) — so resources are bounded across many short
// flows.
#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"
#include "trace/payload_synth.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::tuple_n;

TEST(FlowLifecycle, FinFreesAllTables) {
  ServiceChain chain;
  auto& nat = chain.emplace_nf<nf::MazuNat>();
  auto& snort = chain.emplace_nf<nf::SnortIds>(
      trace::default_snort_rules());
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  net::Packet open = net::make_tcp_packet(tuple_n(1), "hello");
  runner.process_packet(open);
  net::Packet mid = net::make_tcp_packet(tuple_n(1), "data");
  runner.process_packet(mid);
  EXPECT_EQ(nat.active_mappings(), 1u);
  EXPECT_EQ(snort.tracked_flows(), 1u);
  EXPECT_EQ(chain.global_mat().size(), 1u);

  net::Packet fin = net::make_tcp_packet(
      tuple_n(1), "", net::kTcpFlagFin | net::kTcpFlagAck);
  runner.process_packet(fin);
  EXPECT_EQ(nat.active_mappings(), 0u);
  EXPECT_EQ(snort.tracked_flows(), 0u);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.global_mat().open_records(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
}

TEST(FlowLifecycle, RstAlsoTearsDown) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};
  net::Packet open = net::make_tcp_packet(tuple_n(2), "x");
  runner.process_packet(open);
  net::Packet rst = net::make_tcp_packet(tuple_n(2), "", net::kTcpFlagRst);
  runner.process_packet(rst);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
}

TEST(FlowLifecycle, NatPortsRecycledAcrossSequentialFlows) {
  nf::MazuNatConfig config;
  config.port_lo = 20000;
  config.port_hi = 20004;  // 5 ports only
  ServiceChain chain;
  auto& nat = chain.emplace_nf<nf::MazuNat>(config);
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  // 50 sequential flows with a 5-port pool: teardown must recycle ports.
  for (std::uint32_t f = 0; f < 50; ++f) {
    net::Packet open = net::make_tcp_packet(tuple_n(f), "x");
    runner.process_packet(open);
    net::Packet data = net::make_tcp_packet(tuple_n(f), "y");
    runner.process_packet(data);
    net::Packet fin = net::make_tcp_packet(
        tuple_n(f), "", net::kTcpFlagFin | net::kTcpFlagAck);
    runner.process_packet(fin);
    ASSERT_EQ(nat.active_mappings(), 0u) << "flow " << f;
  }
}

TEST(FlowLifecycle, ReopenedFlowIsInitialAgain) {
  ServiceChain chain;
  auto& monitor = chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  net::Packet open = net::make_tcp_packet(tuple_n(3), "x");
  EXPECT_TRUE(runner.process_packet(open).initial);
  net::Packet fin = net::make_tcp_packet(
      tuple_n(3), "", net::kTcpFlagFin | net::kTcpFlagAck);
  runner.process_packet(fin);

  net::Packet reopen = net::make_tcp_packet(tuple_n(3), "z");
  EXPECT_TRUE(runner.process_packet(reopen).initial)
      << "a reopened connection records fresh rules";
  // open + reopen traverse the original path; the FIN was a subsequent
  // packet and rode the fast path (its accounting ran as a state function).
  EXPECT_EQ(monitor.packets_processed(), 2u);
  ASSERT_NE(monitor.counters_of(tuple_n(3)), nullptr);
  EXPECT_EQ(monitor.counters_of(tuple_n(3))->packets, 3u);
}

TEST(FlowLifecycle, SingletonFinFlowHandled) {
  // A flow whose very first packet carries FIN: recorded, consolidated,
  // then immediately torn down without leaks.
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};
  net::Packet fin = net::make_tcp_packet(
      tuple_n(4), "one-shot", net::kTcpFlagFin | net::kTcpFlagAck);
  const PacketOutcome outcome = runner.process_packet(fin);
  EXPECT_TRUE(outcome.initial);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
}

/// No record, no classifier flow and no NAT, Maglev or IpFilter per-flow
/// entry left in `chain` (§VII-C chain 1) once every flow has closed.
void expect_chain1_clean(ServiceChain& chain) {
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.global_mat().open_records(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
  for (const std::size_t nf : {0, 1, 3}) {
    EXPECT_EQ(chain.nf(nf).flow_state_stats().entries, 0u)
        << chain.nf(nf).name();
  }
}

TEST(FlowLifecycle, WorkloadRunLeavesNoResidue) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  // Uniform workload closes every flow with FIN.
  const trace::Workload workload = trace::make_uniform_workload(20, 10, 64);
  runner.run(workload);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);

  // §VII-C chain 1 at batch 32, interleaved flows that all end in a FIN.
  const trace::Workload closing = trace::make_uniform_workload(300, 6, 64);
  RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = 32;
  auto chain1 = speedybox::testing::make_chain1();
  ChainRunner chain1_runner{*chain1, config};
  chain1_runner.run(closing);
  EXPECT_EQ(chain1_runner.stats().packets, closing.packet_count());
  expect_chain1_clean(*chain1);

  // The same on three shards: every worker's replica ends empty.
  const auto prototype = speedybox::testing::make_chain1();
  ShardedRuntime sharded{*prototype, 3, config};
  sharded.run(closing);
  for (std::size_t shard = 0; shard < sharded.shard_count(); ++shard) {
    expect_chain1_clean(sharded.shard_chain(shard));
  }
}

/// The registry's teardown timer: every shard's teardown_cycles sample
/// count must equal its teardowns counter.
void expect_every_teardown_timed(const telemetry::Registry& registry,
                                 std::uint64_t expected_teardowns) {
  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  const telemetry::ShardSnapshot all = snapshot.aggregate();
  std::uint64_t teardowns = 0;
  for (const auto& [name, value] : all.counters) {
    if (name == "teardowns") teardowns = value;
  }
  std::uint64_t timed = 0;
  for (const auto& [name, histogram] : all.histograms) {
    if (name == "teardown_cycles") timed = histogram.count();
  }
  EXPECT_EQ(teardowns, expected_teardowns);
  EXPECT_EQ(timed, teardowns);
  EXPECT_NE(telemetry::to_json(snapshot).find("teardown_cycles"),
            std::string::npos);
  EXPECT_NE(telemetry::to_prometheus(snapshot).find("teardown_cycles"),
            std::string::npos);
}

TEST(FlowLifecycle, TeardownTimerCoversEveryTeardown) {
  // Every flow closes with a FIN, so each executor tears down all of them.
  constexpr std::size_t kFlows = 120;
  const trace::Workload workload = trace::make_uniform_workload(kFlows, 5, 64);
  RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = 32;
  {
    telemetry::Registry registry;
    auto chain = speedybox::testing::make_chain1();
    ChainRunner runner{*chain, config};
    runner.attach_telemetry(&registry, "runner");
    runner.run(workload);
    expect_every_teardown_timed(registry, kFlows);
  }
  {
    telemetry::Registry registry;
    const auto prototype = speedybox::testing::make_chain1();
    ShardedRuntime sharded{*prototype, 3, config, 1024, &registry, "sharded"};
    sharded.run(workload);
    expect_every_teardown_timed(registry, kFlows);
  }
  {
    telemetry::Registry registry;
    auto chain = speedybox::testing::make_chain1();
    SpeedyBoxPipeline pipeline{*chain, config};
    pipeline.attach_telemetry(&registry, "pipeline");
    pipeline.run(workload);
    expect_every_teardown_timed(registry, kFlows);
  }
}

}  // namespace
}  // namespace speedybox::runtime
