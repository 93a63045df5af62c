// End-to-end structure of the fast path: consolidation contents, path
// switching, and per-packet byte-identical output between the recording
// (initial) pass and the Global MAT (subsequent) pass.
#include <gtest/gtest.h>

#include "net/fields.hpp"
#include "nf/ip_filter.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::modeled;
using speedybox::testing::tuple_n;

TEST(FastPath, ConsolidatedRuleContainsNatModifiesAndMonitorBatch) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  net::Packet first = net::make_tcp_packet(tuple_n(1), "x");
  runner.process_packet(first);

  const core::FlowRecord* rule =
      chain.global_mat().find(first.fid());
  ASSERT_NE(rule, nullptr);
  EXPECT_TRUE(rule->action.field_writes[static_cast<std::size_t>(
      net::HeaderField::kSrcIp)]);
  EXPECT_TRUE(rule->action.field_writes[static_cast<std::size_t>(
      net::HeaderField::kSrcPort)]);
  ASSERT_EQ(rule->batches.size(), 1u);  // only Monitor has state functions
  EXPECT_EQ(chain.nf(rule->batches[0].nf_index).name(), "monitor");
}

TEST(FastPath, SubsequentOutputMatchesRecordingOutput) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  net::Packet first = net::make_tcp_packet(tuple_n(2), "same payload");
  runner.process_packet(first);

  net::Packet second = net::make_tcp_packet(tuple_n(2), "same payload");
  runner.process_packet(second);
  // NAT rewrote both identically: bytes must match exactly.
  EXPECT_TRUE(speedybox::testing::same_bytes(first, second));
}

TEST(FastPath, ManyFlowsIndependentRules) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  constexpr std::uint32_t kFlows = 50;
  std::vector<std::uint16_t> ports(kFlows);
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    net::Packet packet = net::make_tcp_packet(tuple_n(f), "x");
    runner.process_packet(packet);
    const auto parsed = net::parse_packet(packet);
    ports[f] = static_cast<std::uint16_t>(
        net::get_field(packet, *parsed, net::HeaderField::kSrcPort));
  }
  EXPECT_EQ(chain.global_mat().size(), kFlows);
  // Subsequent packets of each flow keep their flow's port.
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    net::Packet packet = net::make_tcp_packet(tuple_n(f), "y");
    runner.process_packet(packet);
    const auto parsed = net::parse_packet(packet);
    EXPECT_EQ(net::get_field(packet, *parsed, net::HeaderField::kSrcPort),
              ports[f]);
  }
}

TEST(FastPath, ForwardOnlyChainRuleIsPureForward) {
  ServiceChain chain;
  chain.emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{});
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};
  net::Packet first = net::make_tcp_packet(tuple_n(60), "x");
  runner.process_packet(first);
  const core::FlowRecord* rule = chain.global_mat().find(first.fid());
  ASSERT_NE(rule, nullptr);
  EXPECT_TRUE(rule->action.is_pure_forward());
}

TEST(FastPath, WorkCyclesShrinkVersusOriginalOnLongChain) {
  // The headline claim in microcosm: with 3 header-action NFs, the fast
  // path spends measurably fewer CPU cycles per subsequent packet than the
  // original chain. Measured work, not modeled.
  const trace::Workload workload = trace::make_uniform_workload(10, 50, 64);

  auto build = [] {
    auto chain = std::make_unique<ServiceChain>();
    chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{}, "f1");
    chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{}, "f2");
    chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{}, "f3");
    return chain;
  };

  auto original_chain = build();
  ChainRunner original{*original_chain,
                       modeled({platform::PlatformKind::kBess, false})};
  const double original_work =
      original.run(workload).platform_cycles_subsequent.percentile(50);

  auto speedy_chain = build();
  ChainRunner speedy{*speedy_chain,
                     modeled({platform::PlatformKind::kBess, true})};
  const double speedy_work =
      speedy.run(workload).platform_cycles_subsequent.percentile(50);

  EXPECT_LT(speedy_work, original_work)
      << "consolidation must reduce real CPU work on a 3-NF chain";
}

}  // namespace
}  // namespace speedybox::runtime
