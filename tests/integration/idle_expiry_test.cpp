// Idle-flow expiry: the garbage collection complementing FIN/RST teardown —
// UDP flows (which never signal close) and abandoned TCP connections must
// not leak rules, FIDs or NF per-flow state.
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"
#include "util/cycle_clock.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::tuple_n;

net::Packet udp_packet(std::uint32_t flow) {
  net::FiveTuple tuple = tuple_n(flow, 53);
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  return net::make_udp_packet(tuple, "query");
}

// The 2 ms threshold is converted before any flow is stamped: the first
// conversion calibrates the clock (~20 ms), which would otherwise age every
// flow past it, whichever argument the compiler evaluates first.
TEST(IdleExpiry, CollectIdleFindsOnlyStaleFlows) {
  const std::uint64_t max_idle = util::CycleClock::from_ns(2e6);
  core::PacketClassifier classifier;
  net::Packet stale = udp_packet(1);
  classifier.classify(stale);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  net::Packet fresh = udp_packet(2);
  classifier.classify(fresh);

  const auto idle = classifier.collect_idle(util::CycleClock::now(), max_idle);
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_EQ(idle[0], stale.fid());
}

TEST(IdleExpiry, RefreshedFlowIsNotIdle) {
  const std::uint64_t max_idle = util::CycleClock::from_ns(2e6);
  core::PacketClassifier classifier;
  net::Packet first = udp_packet(3);
  classifier.classify(first);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  net::Packet again = udp_packet(3);  // same tuple refreshes last-seen
  classifier.classify(again);

  EXPECT_TRUE(
      classifier.collect_idle(util::CycleClock::now(), max_idle).empty());
}

TEST(IdleExpiry, RunnerExpiryFreesEverything) {
  ServiceChain chain;
  auto& nat = chain.emplace_nf<nf::MazuNat>();
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};

  for (std::uint32_t flow = 0; flow < 5; ++flow) {
    net::Packet a = udp_packet(10 + flow);
    runner.process_packet(a);
    net::Packet b = udp_packet(10 + flow);
    runner.process_packet(b);
  }
  EXPECT_EQ(chain.global_mat().size(), 5u);
  EXPECT_EQ(nat.active_mappings(), 5u);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(runner.expire_idle_flows(/*max_idle_us=*/2000.0), 5u);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
  EXPECT_EQ(nat.active_mappings(), 0u)
      << "teardown hooks must free NF per-flow state";

  // The flow re-records cleanly afterwards.
  net::Packet reopened = udp_packet(10);
  EXPECT_TRUE(runner.process_packet(reopened).initial);
}

TEST(IdleExpiry, ActiveFlowsSurviveExpiry) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};
  net::Packet packet = udp_packet(30);
  runner.process_packet(packet);
  // Generous timeout: nothing is idle yet.
  EXPECT_EQ(runner.expire_idle_flows(/*max_idle_us=*/1e9), 0u);
  EXPECT_EQ(chain.global_mat().size(), 1u);
}

TEST(IdleExpiry, OriginalModeIsNoOp) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  ChainRunner runner{chain, {platform::PlatformKind::kBess, false}};
  net::Packet packet = udp_packet(31);
  runner.process_packet(packet);
  EXPECT_EQ(runner.expire_idle_flows(0.0), 0u);
}

}  // namespace
}  // namespace speedybox::runtime
