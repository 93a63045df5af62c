#include "core/global_mat.hpp"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::core {
namespace {

using net::HeaderField;
using speedybox::testing::tuple_n;

class GlobalMatTest : public ::testing::Test {
 protected:
  GlobalMatTest() : nat_("nat", 0), monitor_("monitor", 1) {
    mat_.set_chain({&nat_, &monitor_});
  }

  LocalMat nat_;
  LocalMat monitor_;
  GlobalMat mat_;
};

TEST_F(GlobalMatTest, ConsolidatesAcrossLocalMats) {
  nat_.add_header_action(1, HeaderAction::modify(HeaderField::kSrcIp, 7));
  monitor_.add_header_action(1,
                             HeaderAction::modify(HeaderField::kDstPort, 99));
  mat_.consolidate_flow(1);

  const ConsolidatedRule* rule = mat_.find(1);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->action.field_writes[static_cast<std::size_t>(
                HeaderField::kSrcIp)],
            7u);
  EXPECT_EQ(rule->action.field_writes[static_cast<std::size_t>(
                HeaderField::kDstPort)],
            99u);
}

TEST_F(GlobalMatTest, BatchesKeepChainOrder) {
  int order_marker = 0;
  int nat_seen_at = -1, monitor_seen_at = -1;
  nat_.add_state_function(
      2, StateFunction{[&](net::Packet&, const net::ParsedPacket&) {
                         nat_seen_at = order_marker++;
                       },
                       PayloadAccess::kIgnore, "nat.sf"});
  monitor_.add_state_function(
      2, StateFunction{[&](net::Packet&, const net::ParsedPacket&) {
                         monitor_seen_at = order_marker++;
                       },
                       PayloadAccess::kIgnore, "mon.sf"});
  mat_.consolidate_flow(2);

  net::Packet packet = net::make_tcp_packet(tuple_n(2), "x");
  packet.set_fid(2);
  mat_.process(packet);
  EXPECT_EQ(nat_seen_at, 0);
  EXPECT_EQ(monitor_seen_at, 1);
}

TEST_F(GlobalMatTest, ProcessMissReturnsNoHit) {
  net::Packet packet = net::make_tcp_packet(tuple_n(3), "x");
  packet.set_fid(3);
  const auto result = mat_.process(packet);
  EXPECT_FALSE(result.rule_hit);
  EXPECT_FALSE(result.dropped);
}

TEST_F(GlobalMatTest, AppliesConsolidatedModify) {
  nat_.add_header_action(4, HeaderAction::modify(HeaderField::kDstIp,
                                                 0x0A0A0A0A));
  mat_.consolidate_flow(4);

  net::Packet packet = net::make_tcp_packet(tuple_n(4), "x");
  packet.set_fid(4);
  const auto result = mat_.process(packet);
  EXPECT_TRUE(result.rule_hit);
  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(net::get_field(packet, *parsed, HeaderField::kDstIp),
            0x0A0A0A0Au);
}

TEST_F(GlobalMatTest, DropShortCircuitsStateFunctions) {
  bool sf_ran = false;
  nat_.add_header_action(5, HeaderAction::drop());
  monitor_.add_state_function(
      5, StateFunction{[&](net::Packet&, const net::ParsedPacket&) {
                         sf_ran = true;
                       },
                       PayloadAccess::kIgnore, "sf"});
  mat_.consolidate_flow(5);

  net::Packet packet = net::make_tcp_packet(tuple_n(5), "x");
  packet.set_fid(5);
  const auto result = mat_.process(packet);
  EXPECT_TRUE(result.dropped);
  EXPECT_TRUE(packet.dropped());
  EXPECT_FALSE(sf_ran) << "dropped packets must not execute state functions";
}

TEST_F(GlobalMatTest, EventTriggerRewritesRuleBeforeProcessing) {
  bool condition = false;
  nat_.add_header_action(6, HeaderAction::modify(HeaderField::kDstPort, 80));
  mat_.consolidate_flow(6);

  EventRegistration event;
  event.fid = 6;
  event.nf_index = 0;
  event.name = "switch-port";
  event.condition = [&condition] { return condition; };
  event.update = [] {
    EventUpdate update;
    update.header_actions = {HeaderAction::modify(HeaderField::kDstPort,
                                                  8080)};
    return update;
  };
  mat_.event_table().register_event(std::move(event));
  // Events are normally registered during the recording pass; a late
  // registration takes effect at the next consolidation.
  mat_.consolidate_flow(6);

  // Before the condition holds: port 80.
  net::Packet before = net::make_tcp_packet(tuple_n(6), "x");
  before.set_fid(6);
  mat_.process(before);
  EXPECT_EQ(net::get_field(before, *net::parse_packet(before),
                           HeaderField::kDstPort),
            80u);

  // Once triggered, the same packet stream gets the updated action.
  condition = true;
  net::Packet after = net::make_tcp_packet(tuple_n(6), "x");
  after.set_fid(6);
  const auto result = mat_.process(after);
  EXPECT_EQ(result.events_triggered, 1u);
  EXPECT_EQ(net::get_field(after, *net::parse_packet(after),
                           HeaderField::kDstPort),
            8080u);
}

TEST_F(GlobalMatTest, ReconsolidationBumpsVersion) {
  nat_.add_header_action(7, HeaderAction::forward());
  mat_.consolidate_flow(7);
  EXPECT_EQ(mat_.find(7)->version, 1u);
  mat_.consolidate_flow(7);
  EXPECT_EQ(mat_.find(7)->version, 2u);
}

TEST_F(GlobalMatTest, EraseFlowClearsRuleEventsAndLocalRules) {
  nat_.add_header_action(8, HeaderAction::forward());
  mat_.consolidate_flow(8);
  bool torn_down = false;
  nat_.add_teardown_hook(8, [&torn_down] { torn_down = true; });

  EventRegistration event;
  event.fid = 8;
  event.condition = [] { return false; };
  mat_.event_table().register_event(std::move(event));

  mat_.erase_flow(8);
  EXPECT_EQ(mat_.find(8), nullptr);
  EXPECT_FALSE(mat_.event_table().has_events(8));
  EXPECT_EQ(nat_.find(8), nullptr);
  EXPECT_TRUE(torn_down);
}

TEST_F(GlobalMatTest, MeasuredRunReportsCycleBreakdown) {
  nat_.add_header_action(9, HeaderAction::modify(HeaderField::kTtl, 3));
  monitor_.add_state_function(
      9, StateFunction{[](net::Packet&, const net::ParsedPacket&) {
                         volatile int x = 0;
                         for (int i = 0; i < 200; ++i) x = x + i;
                       },
                       PayloadAccess::kIgnore, "work"});
  mat_.consolidate_flow(9);

  net::Packet packet = net::make_tcp_packet(tuple_n(9), "x");
  packet.set_fid(9);
  const auto result = mat_.process(packet, /*measure_batches=*/true);
  EXPECT_GT(result.sf_total_cycles, 0u);
  EXPECT_GT(result.sf_critical_path_cycles, 0u);
  EXPECT_LE(result.sf_critical_path_cycles, result.sf_total_cycles);
}

TEST_F(GlobalMatTest, ScheduleGroupsReadBatches) {
  nat_.add_state_function(
      10, StateFunction{[](net::Packet&, const net::ParsedPacket&) {},
                        PayloadAccess::kRead, "a"});
  monitor_.add_state_function(
      10, StateFunction{[](net::Packet&, const net::ParsedPacket&) {},
                        PayloadAccess::kRead, "b"});
  mat_.consolidate_flow(10);
  const ConsolidatedRule* rule = mat_.find(10);
  ASSERT_EQ(rule->batches.size(), 2u);
  EXPECT_EQ(rule->schedule.group_count(), 1u);
}

// The threaded pipeline's split: NF cores record flows into the Local MATs
// and the Event Table while the manager consolidates, fast-paths and tears
// down earlier flows. Both tables keep their records in FlowTable slabs
// whose even const lookups write probe counters, so every access must stay
// under the table locks (run under TSan and ASan by run_sanitizers.sh).
TEST(GlobalMatConcurrency, RecordWhileConsolidatingAndErasing) {
  constexpr std::uint32_t kFlows = 3000;
  constexpr std::uint32_t kLag = 64;  // flows kept alive behind the head
  LocalMat nat{"nat", 0};
  LocalMat monitor{"monitor", 1};
  GlobalMat mat;
  mat.set_chain({&nat, &monitor});
  std::atomic<std::uint32_t> recorded{0};
  std::atomic<std::uint64_t> sf_runs{0};
  std::atomic<std::uint32_t> hooks_run{0};

  std::thread nf_core([&] {
    for (std::uint32_t fid = 0; fid < kFlows; ++fid) {
      SpeedyBoxContext nat_ctx{nat, mat.event_table(), fid};
      nat_ctx.add_header_action(
          HeaderAction::modify(HeaderField::kSrcPort, 1000 + fid % 5000));
      nat_ctx.on_teardown([&hooks_run] { hooks_run.fetch_add(1); });
      SpeedyBoxContext monitor_ctx{monitor, mat.event_table(), fid};
      monitor_ctx.add_header_action(HeaderAction::forward());
      monitor_ctx.add_state_function(StateFunction{
          [&sf_runs](net::Packet&, const net::ParsedPacket&) {
            sf_runs.fetch_add(1);
          },
          PayloadAccess::kIgnore, "count"});
      monitor_ctx.register_event(
          "never", [] { return false; }, [] { return EventUpdate{}; },
          /*one_shot=*/false);
      recorded.store(fid + 1, std::memory_order_release);
    }
  });

  // Manager: consolidate each flow once its recording completed, run one
  // fast-path packet against it, and erase the flow kLag flows behind.
  std::uint32_t erased = 0;
  for (std::uint32_t fid = 0; fid < kFlows; ++fid) {
    while (recorded.load(std::memory_order_acquire) <= fid) {
      std::this_thread::yield();
    }
    mat.consolidate_flow(fid);
    net::Packet packet = net::make_tcp_packet(tuple_n(fid), "x");
    packet.set_fid(fid);
    ASSERT_TRUE(mat.process(packet).rule_hit);
    if (fid >= kLag) mat.erase_flow(erased++);
  }
  nf_core.join();
  while (erased < kFlows) mat.erase_flow(erased++);

  EXPECT_EQ(mat.size(), 0u);
  EXPECT_EQ(nat.size(), 0u);
  EXPECT_EQ(monitor.size(), 0u);
  EXPECT_EQ(mat.event_table().flow_count(), 0u);
  EXPECT_EQ(hooks_run.load(), kFlows);
  EXPECT_EQ(sf_runs.load(), kFlows);
  EXPECT_EQ(mat.event_table().checks_performed(), kFlows);
  EXPECT_EQ(mat.consolidations(), kFlows);
}

}  // namespace
}  // namespace speedybox::core
