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
  /// Recording contexts of a two-NF chain (nat, monitor) for flow `fid`.
  SpeedyBoxContext nat(std::uint32_t fid) { return context(fid, 0); }
  SpeedyBoxContext monitor(std::uint32_t fid) { return context(fid, 1); }

  GlobalMat mat_;

 private:
  SpeedyBoxContext context(std::uint32_t fid, std::size_t nf) {
    FlowRecord* record = mat_.record(fid);
    if (record == nullptr) record = &mat_.open_flow(fid);
    return SpeedyBoxContext{*record, nf, fid};
  }
};

TEST_F(GlobalMatTest, ConsolidatesAcrossNfs) {
  nat(1).add_header_action(HeaderAction::modify(HeaderField::kSrcIp, 7));
  monitor(1).add_header_action(HeaderAction::modify(HeaderField::kDstPort, 99));
  mat_.consolidate_flow(1);

  const FlowRecord* rule = mat_.find(1);
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
  nat(2).add_state_function(StateFunction{
      [&](net::Packet&, const net::ParsedPacket&) {
        nat_seen_at = order_marker++;
      },
      PayloadAccess::kIgnore, "nat.sf"});
  monitor(2).add_state_function(StateFunction{
      [&](net::Packet&, const net::ParsedPacket&) {
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
  nat(4).add_header_action(
      HeaderAction::modify(HeaderField::kDstIp, 0x0A0A0A0A));
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
  nat(5).add_header_action(HeaderAction::drop());
  monitor(5).add_state_function(StateFunction{
      [&](net::Packet&, const net::ParsedPacket&) { sf_ran = true; },
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
  nat(6).add_header_action(HeaderAction::modify(HeaderField::kDstPort, 80));
  mat_.consolidate_flow(6);

  nat(6).register_event(
      "switch-port", [&condition] { return condition; },
      [] {
        EventUpdate update;
        update.header_actions = {
            HeaderAction::modify(HeaderField::kDstPort, 8080)};
        return update;
      });
  // Events are normally registered during the recording pass; a late
  // registration takes effect at once, since the fast path reads the
  // record's own event list.

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
  nat(7).add_header_action(HeaderAction::forward());
  mat_.consolidate_flow(7);
  EXPECT_EQ(mat_.find(7)->version, 1u);
  mat_.consolidate_flow(7);
  EXPECT_EQ(mat_.find(7)->version, 2u);
}

TEST_F(GlobalMatTest, EraseFlowRunsHooksAndFreesTheRecord) {
  nat(8).add_header_action(HeaderAction::forward());
  mat_.consolidate_flow(8);
  bool torn_down = false;
  nat(8).on_teardown([&torn_down] { torn_down = true; });
  nat(8).register_event(
      "never", [] { return false; }, [] { return EventUpdate{}; });

  mat_.erase_flow(8);
  EXPECT_EQ(mat_.find(8), nullptr);
  EXPECT_EQ(mat_.record(8), nullptr);
  EXPECT_TRUE(torn_down);
  EXPECT_EQ(mat_.size(), 0u);
  EXPECT_EQ(mat_.open_records(), 0u);

  // The slot serves the next flow with that FID from an empty record.
  FlowRecord& reused = mat_.open_flow(8);
  EXPECT_TRUE(reused.header_actions.empty());
  EXPECT_TRUE(reused.events.empty());
  EXPECT_TRUE(reused.teardown_hooks.empty());
}

TEST_F(GlobalMatTest, RecordAddressesSurviveGrowth) {
  const FlowRecord* first = &mat_.open_flow(0);
  for (std::uint32_t fid = 1; fid < 5000; ++fid) mat_.open_flow(fid);
  EXPECT_EQ(mat_.record(0), first);
  EXPECT_EQ(mat_.open_records(), 5000u);
}

TEST_F(GlobalMatTest, MeasuredRunReportsCycleBreakdown) {
  nat(9).add_header_action(HeaderAction::modify(HeaderField::kTtl, 3));
  monitor(9).add_state_function(StateFunction{
      [](net::Packet&, const net::ParsedPacket&) {
        volatile int x = 0;
        for (int i = 0; i < 200; ++i) x = x + i;
      },
      PayloadAccess::kIgnore, "work"});
  mat_.consolidate_flow(9);

  net::Packet packet = net::make_tcp_packet(tuple_n(9), "x");
  packet.set_fid(9);
  const auto result = mat_.process(packet, nullptr, /*model=*/true);
  EXPECT_GT(result.sf_total_cycles, 0u);
  EXPECT_GT(result.sf_critical_path_cycles, 0u);
  EXPECT_LE(result.sf_critical_path_cycles, result.sf_total_cycles);
}

TEST_F(GlobalMatTest, ScheduleGroupsReadBatches) {
  nat(10).add_state_function(StateFunction{
      [](net::Packet&, const net::ParsedPacket&) {}, PayloadAccess::kRead,
      "a"});
  monitor(10).add_state_function(StateFunction{
      [](net::Packet&, const net::ParsedPacket&) {}, PayloadAccess::kRead,
      "b"});
  mat_.consolidate_flow(10);
  const FlowRecord* rule = mat_.find(10);
  ASSERT_EQ(rule->batches.size(), 2u);
  EXPECT_EQ(rule->schedule.group_count(), 1u);
}

// The threaded pipeline's split: the manager opens each flow's record and
// hands its address to an NF core, which records into it with no lock
// while the manager consolidates, fast-paths and erases earlier flows and
// recycles their FIDs. Only the hand-off atomics order the two threads
// (run under TSan and ASan by run_sanitizers.sh).
TEST(GlobalMatConcurrency, RecordIntoRecordsWhileConsolidatingAndErasing) {
  constexpr std::uint32_t kFlows = 3000;
  constexpr std::uint32_t kAhead = 32;  // flows opened ahead of the manager
  constexpr std::uint32_t kLag = 64;    // flows kept alive behind the head
  // Flow i takes FID i % kSlots: each FID is reused as soon as the flow
  // before it on the FID has been erased.
  constexpr std::uint32_t kSlots = kAhead + kLag + 1;
  GlobalMat mat;
  std::vector<FlowRecord*> handoff(kFlows, nullptr);
  std::atomic<std::uint32_t> opened{0};
  std::atomic<std::uint32_t> recorded{0};
  std::atomic<std::uint64_t> sf_runs{0};
  std::atomic<std::uint32_t> hooks_run{0};

  std::thread nf_core([&] {
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      while (opened.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      const std::uint32_t fid = i % kSlots;
      SpeedyBoxContext nat_ctx{*handoff[i], 0, fid};
      nat_ctx.add_header_action(
          HeaderAction::modify(HeaderField::kSrcPort, 1000 + i % 5000));
      nat_ctx.on_teardown([&hooks_run] { hooks_run.fetch_add(1); });
      SpeedyBoxContext monitor_ctx{*handoff[i], 1, fid};
      monitor_ctx.add_header_action(HeaderAction::forward());
      monitor_ctx.add_state_function(StateFunction{
          [&sf_runs](net::Packet&, const net::ParsedPacket&) {
            sf_runs.fetch_add(1);
          },
          PayloadAccess::kIgnore, "count"});
      monitor_ctx.register_event(
          "never", [] { return false; }, [] { return EventUpdate{}; },
          /*one_shot=*/false);
      recorded.store(i + 1, std::memory_order_release);
    }
  });

  // Manager: open flow i, then consolidate flow i - kAhead once its
  // recording completed, run one fast-path packet against it, and erase
  // the flow kLag flows behind that.
  std::uint32_t erased = 0;
  for (std::uint32_t i = 0; i < kFlows + kAhead; ++i) {
    if (i < kFlows) {
      handoff[i] = &mat.open_flow(i % kSlots);
      opened.store(i + 1, std::memory_order_release);
    }
    if (i < kAhead) continue;
    const std::uint32_t flow = i - kAhead;
    while (recorded.load(std::memory_order_acquire) <= flow) {
      std::this_thread::yield();
    }
    const std::uint32_t fid = flow % kSlots;
    mat.consolidate_flow(fid);
    net::Packet packet = net::make_tcp_packet(tuple_n(flow), "x");
    packet.set_fid(fid);
    ASSERT_TRUE(mat.process(packet).rule_hit);
    if (flow >= kLag) mat.erase_flow(erased++ % kSlots);
  }
  nf_core.join();
  while (erased < kFlows) mat.erase_flow(erased++ % kSlots);

  EXPECT_EQ(mat.size(), 0u);
  EXPECT_EQ(mat.open_records(), 0u);
  EXPECT_EQ(hooks_run.load(), kFlows);
  EXPECT_EQ(sf_runs.load(), kFlows);
  EXPECT_EQ(mat.checks_performed(), kFlows);
  EXPECT_EQ(mat.consolidations(), kFlows);
}

}  // namespace
}  // namespace speedybox::core
