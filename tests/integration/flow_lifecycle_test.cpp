// Flow lifecycle end-to-end (§VI-B): FIN/RST teardown frees rules in the
// Global MAT, every Local MAT, the classifier, and NF-internal state (via
// teardown hooks) — so resources are bounded across many short flows.
#include <gtest/gtest.h>

#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "runtime/runner.hpp"
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
  EXPECT_EQ(chain.local_mat(0).size(), 0u);
  EXPECT_EQ(chain.local_mat(1).size(), 0u);
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

TEST(FlowLifecycle, WorkloadRunLeavesNoResidue) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  // Uniform workload closes every flow with FIN.
  const trace::Workload workload = trace::make_uniform_workload(20, 10, 64);
  runner.run_workload(workload);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
}

}  // namespace
}  // namespace speedybox::runtime
