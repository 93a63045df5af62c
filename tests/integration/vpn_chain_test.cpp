// Encap/decap consolidation end-to-end (§V-B stack simulation): a chain
// that tunnels and un-tunnels (VPN egress -> monitor segment -> VPN
// ingress) consolidates to NO encapsulation work at all on the fast path —
// the R3-style elimination for headers — while a one-endpoint chain keeps
// the residual encap/decap.
#include <gtest/gtest.h>

#include "equivalence/equivalence_helpers.hpp"
#include "nf/gateway.hpp"
#include "nf/monitor.hpp"
#include "nf/vpn_gateway.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::tuple_n;

TEST(VpnChain, EncapDecapCancelOnFastPath) {
  ServiceChain chain;
  chain.emplace_nf<nf::VpnGateway>(nf::VpnMode::kEgress, 0x2000u, "vpn-out");
  chain.emplace_nf<nf::Monitor>(nf::MonitorConfig{}, "wan-monitor");
  chain.emplace_nf<nf::VpnGateway>(nf::VpnMode::kIngress, 0x2000u, "vpn-in");
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  net::Packet first = net::make_tcp_packet(tuple_n(1), "through the tunnel");
  runner.process_packet(first);

  const core::FlowRecord* rule = chain.global_mat().find(first.fid());
  ASSERT_NE(rule, nullptr);
  EXPECT_TRUE(rule->action.trailing_encaps.empty())
      << "encap must cancel against the downstream decap";
  EXPECT_TRUE(rule->action.leading_decaps.empty());
  EXPECT_FALSE(rule->action.drop);

  // Subsequent packets leave the chain identical to how they entered.
  net::Packet second = net::make_tcp_packet(tuple_n(1), "through the tunnel");
  const net::Packet before = second;
  runner.process_packet(second);
  EXPECT_TRUE(speedybox::testing::same_bytes(second, before));
}

TEST(VpnChain, ResidualEncapSurvivesConsolidation) {
  ServiceChain chain;
  chain.emplace_nf<nf::Gateway>(std::vector<nf::TrafficClass>{},
                                "gateway");
  chain.emplace_nf<nf::VpnGateway>(nf::VpnMode::kEgress, 0x3000u, "vpn-out");
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  net::Packet first = net::make_tcp_packet(tuple_n(2), "egress only");
  runner.process_packet(first);
  const core::FlowRecord* rule = chain.global_mat().find(first.fid());
  ASSERT_NE(rule, nullptr);
  ASSERT_EQ(rule->action.trailing_encaps.size(), 1u);
  EXPECT_EQ(rule->action.trailing_encaps[0].kind, net::EncapKind::kAh);

  net::Packet second = net::make_tcp_packet(tuple_n(2), "egress only");
  runner.process_packet(second);
  EXPECT_TRUE(net::outer_ah_spi(second).has_value());
  // Both the modify (TTL) and the encap applied, checksums valid.
  const auto parsed = net::parse_packet(second);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(net::verify_ipv4_checksum(second, parsed->l3_offset));
  EXPECT_EQ(net::get_field(second, *parsed, net::HeaderField::kTtl), 63u);
}

TEST(VpnChain, SiteToSiteEquivalence) {
  // Full site-to-site path: gateway -> VPN out -> WAN monitor -> VPN in ->
  // LAN monitor. Original vs SpeedyBox outputs must be byte-identical and
  // both monitors must agree between paths.
  const trace::Workload workload = trace::make_uniform_workload(20, 15, 120);

  struct Vpns {
    std::unique_ptr<ServiceChain> chain = std::make_unique<ServiceChain>();
    nf::Monitor* wan;
    nf::Monitor* lan;
  };
  const auto build = [] {
    Vpns v;
    v.chain->emplace_nf<nf::Gateway>(
        std::vector<nf::TrafficClass>{{80, 80, 18}}, "gateway");
    v.chain->emplace_nf<nf::VpnGateway>(nf::VpnMode::kEgress, 0x4000u,
                                        "vpn-out");
    v.wan = &v.chain->emplace_nf<nf::Monitor>(nf::MonitorConfig{}, "wan");
    v.chain->emplace_nf<nf::VpnGateway>(nf::VpnMode::kIngress, 0x4000u,
                                        "vpn-in");
    v.lan = &v.chain->emplace_nf<nf::Monitor>(nf::MonitorConfig{}, "lan");
    return v;
  };

  auto original = build();
  const auto original_run =
      speedybox::testing::run_chain(*original.chain, workload, false);
  auto speedy = build();
  const auto speedy_run =
      speedybox::testing::run_chain(*speedy.chain, workload, true);

  speedybox::testing::expect_identical_outputs(original_run, speedy_run);
  EXPECT_EQ(original.lan->total_bytes(), speedy.lan->total_bytes());
  // The WAN monitor sits inside the tunnel: on the original path it counts
  // encapsulated (larger) packets. The fast path executes its recorded
  // state function on the consolidated packet — sizes differ by the AH
  // length, packets counted identically.
  EXPECT_EQ(original.wan->total_packets(), speedy.wan->total_packets());
}

}  // namespace
}  // namespace speedybox::runtime
