// R2 / Table III: with a chain {forward, forward, drop}, the original path
// wastes NF1+NF2 work on every packet before NF3 drops it; SpeedyBox drops
// subsequent packets at the head of the chain.
#include <gtest/gtest.h>

#include "nf/ip_filter.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::modeled;
using speedybox::testing::tuple_n;

std::vector<nf::AclRule> pass_acl() { return {}; }
std::vector<nf::AclRule> drop80_acl() {
  return {nf::AclRule::drop_dst_port(80)};
}

TEST(EarlyDrop, OriginalChainPaysAllThreeNfs) {
  ServiceChain chain;
  auto& f1 = chain.emplace_nf<nf::IpFilter>(pass_acl(), "f1");
  auto& f2 = chain.emplace_nf<nf::IpFilter>(pass_acl(), "f2");
  auto& f3 = chain.emplace_nf<nf::IpFilter>(drop80_acl(), "f3");
  ChainRunner runner{chain, {platform::PlatformKind::kBess, false}};

  for (int i = 0; i < 10; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(1, 80), "x");
    EXPECT_TRUE(runner.process_packet(packet).dropped);
  }
  EXPECT_EQ(f1.packets_processed(), 10u);
  EXPECT_EQ(f2.packets_processed(), 10u);
  EXPECT_EQ(f3.packets_processed(), 10u);
  EXPECT_EQ(f3.drops(), 10u);
}

TEST(EarlyDrop, SpeedyBoxDropsSubsequentAtChainHead) {
  ServiceChain chain;
  auto& f1 = chain.emplace_nf<nf::IpFilter>(pass_acl(), "f1");
  auto& f2 = chain.emplace_nf<nf::IpFilter>(pass_acl(), "f2");
  auto& f3 = chain.emplace_nf<nf::IpFilter>(drop80_acl(), "f3");
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  for (int i = 0; i < 10; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(2, 80), "x");
    EXPECT_TRUE(runner.process_packet(packet).dropped);
  }
  // Only the initial packet traversed the NFs.
  EXPECT_EQ(f1.packets_processed(), 1u);
  EXPECT_EQ(f2.packets_processed(), 1u);
  EXPECT_EQ(f3.packets_processed(), 1u);
  // The consolidated rule is a pure drop.
  net::Packet probe = net::make_tcp_packet(tuple_n(2, 80), "x");
  const auto cls = chain.classifier().classify(probe);
  const core::FlowRecord* rule = chain.global_mat().find(cls->fid);
  ASSERT_NE(rule, nullptr);
  EXPECT_TRUE(rule->action.drop);
}

TEST(EarlyDrop, SubsequentWorkFarBelowOriginal) {
  // The ~65% CPU-cycle saving of Table III, asserted as a strict ordering
  // (absolute numbers are machine-dependent).
  const trace::Workload workload = trace::make_uniform_workload(5, 100, 64);
  auto build = [] {
    auto chain = std::make_unique<ServiceChain>();
    chain->emplace_nf<nf::IpFilter>(pass_acl(), "f1");
    chain->emplace_nf<nf::IpFilter>(pass_acl(), "f2");
    chain->emplace_nf<nf::IpFilter>(
        std::vector<nf::AclRule>{nf::AclRule::drop_dst_port(80)}, "f3");
    return chain;
  };
  // Workload flows all target port 80 -> all dropped at f3.
  // Platform cycles (work + per-NF overhead) — the Table-III metric.
  auto original_chain = build();
  ChainRunner original{*original_chain,
                       modeled({platform::PlatformKind::kBess, false})};
  const double original_work = original.run(workload)
                                   .platform_cycles_subsequent.percentile(50);

  auto speedy_chain = build();
  ChainRunner speedy{*speedy_chain,
                     modeled({platform::PlatformKind::kBess, true})};
  const double speedy_work =
      speedy.run(workload).platform_cycles_subsequent.percentile(50);

  EXPECT_LT(speedy_work, original_work * 0.7)
      << "early drop should save well over 30% of per-packet platform "
         "cycles";
}

TEST(EarlyDrop, MixedFlowsOnlyBlacklistedDropped) {
  ServiceChain chain;
  chain.emplace_nf<nf::IpFilter>(pass_acl(), "f1");
  chain.emplace_nf<nf::IpFilter>(drop80_acl(), "f2");
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  for (int i = 0; i < 5; ++i) {
    net::Packet blocked = net::make_tcp_packet(tuple_n(3, 80), "x");
    EXPECT_TRUE(runner.process_packet(blocked).dropped);
    net::Packet allowed = net::make_tcp_packet(tuple_n(4, 443), "x");
    EXPECT_FALSE(runner.process_packet(allowed).dropped);
  }
  EXPECT_EQ(runner.stats().drops, 5u);
}

}  // namespace
}  // namespace speedybox::runtime
