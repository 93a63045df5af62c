// Events end-to-end on the fast path: DoS blacklisting (Fig. 3) and Maglev
// failover (§V-A Observation 2) driven through the full runner.
#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/fields.hpp"
#include "nf/dos_prevention.hpp"
#include "nf/maglev_lb.hpp"
#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::tuple_n;

TEST(EventIntegration, DosBlacklistFlipsFastPathToDrop) {
  constexpr std::uint64_t kThreshold = 3;
  ServiceChain chain;
  chain.emplace_nf<nf::DosPrevention>(kThreshold);
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  // SYN flood from one flow. Arrival-state semantics: the drop starts once
  // the counter observed at arrival exceeds the threshold.
  int first_dropped = -1;
  for (int i = 0; i < 10; ++i) {
    net::Packet packet =
        net::make_tcp_packet(tuple_n(1), "", net::kTcpFlagSyn);
    const PacketOutcome outcome = runner.process_packet(packet);
    if (outcome.dropped && first_dropped < 0) first_dropped = i;
  }
  // threshold=3: counter after packets 0..3 is 4; packet 4 arrives with
  // 4 > 3 -> event fires there.
  EXPECT_EQ(first_dropped, 4);
  // And it stays dropped.
  net::Packet more = net::make_tcp_packet(tuple_n(1), "", net::kTcpFlagSyn);
  EXPECT_TRUE(runner.process_packet(more).dropped);
  EXPECT_TRUE(
      chain.global_mat().find(more.fid())->action.drop);
}

TEST(EventIntegration, DosEventCountedOnce) {
  ServiceChain chain;
  chain.emplace_nf<nf::DosPrevention>(1);
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};
  for (int i = 0; i < 6; ++i) {
    net::Packet packet =
        net::make_tcp_packet(tuple_n(2), "", net::kTcpFlagSyn);
    runner.process_packet(packet);
  }
  EXPECT_EQ(runner.stats().events_triggered, 1u)
      << "one-shot blacklist event must fire exactly once";
}

TEST(EventIntegration, MaglevFailoverReroutesMidStream) {
  std::vector<nf::Backend> backends{
      {"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
      {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true},
  };
  ServiceChain chain;
  auto& lb = chain.emplace_nf<nf::MaglevLb>(backends, std::size_t{251});
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  // 5 packets to the original backend.
  std::uint32_t ip_before = 0;
  for (int i = 0; i < 5; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(3), "x");
    runner.process_packet(packet);
    const auto parsed = net::parse_packet(packet);
    ip_before = net::get_field(packet, *parsed, net::HeaderField::kDstIp);
  }
  const std::size_t original = lb.backend_of(tuple_n(3)).value();
  EXPECT_EQ(ip_before, lb.backends()[original].ip.value);

  // Fail it; packets 6-10 must carry the other backend's address.
  lb.fail_backend(original);
  for (int i = 0; i < 5; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(3), "x");
    const PacketOutcome outcome = runner.process_packet(packet);
    EXPECT_FALSE(outcome.dropped);
    const auto parsed = net::parse_packet(packet);
    const std::uint32_t dst =
        net::get_field(packet, *parsed, net::HeaderField::kDstIp);
    EXPECT_NE(dst, lb.backends()[original].ip.value);
    EXPECT_TRUE(net::verify_l4_checksum(packet, *parsed));
  }
  EXPECT_EQ(lb.reroutes(), 1u);
}

TEST(EventIntegration, FailoverEventOnlyAffectsPinnedFlows) {
  std::vector<nf::Backend> backends{
      {"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
      {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true},
      {"b2", net::Ipv4Addr{10, 2, 0, 12}, 8002, true},
  };
  ServiceChain chain;
  auto& lb = chain.emplace_nf<nf::MaglevLb>(backends, std::size_t{251});
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  // Establish many flows; find one pinned to backend 0 and one not.
  std::vector<std::size_t> flow_backend(40);
  for (std::uint32_t f = 0; f < 40; ++f) {
    net::Packet packet = net::make_tcp_packet(tuple_n(f), "x");
    runner.process_packet(packet);
    flow_backend[f] = lb.backend_of(tuple_n(f)).value();
  }
  lb.fail_backend(0);

  std::uint64_t moved = 0;
  for (std::uint32_t f = 0; f < 40; ++f) {
    net::Packet packet = net::make_tcp_packet(tuple_n(f), "x");
    runner.process_packet(packet);
    const std::size_t now = lb.backend_of(tuple_n(f)).value();
    if (flow_backend[f] == 0) {
      EXPECT_NE(now, 0u) << "flow " << f << " must leave the dead backend";
      ++moved;
    } else {
      EXPECT_EQ(now, flow_backend[f])
          << "flow " << f << " must not move (connection stickiness)";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(lb.reroutes(), moved);
}

TEST(EventIntegration, EventsSurviveAcrossManyPackets) {
  // A persistent event keeps being checked but never fires while healthy;
  // the fast path must not degrade or mis-trigger.
  std::vector<nf::Backend> backends{
      {"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
      {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true},
  };
  ServiceChain chain;
  chain.emplace_nf<nf::MaglevLb>(backends, std::size_t{251});
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  for (int i = 0; i < 200; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(5), "x");
    runner.process_packet(packet);
  }
  EXPECT_EQ(runner.stats().events_triggered, 0u);
  EXPECT_GT(chain.global_mat().checks_performed(), 150u);
}

}  // namespace
}  // namespace speedybox::runtime
