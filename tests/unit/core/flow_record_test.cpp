#include "core/flow_record.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/global_mat.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::core {
namespace {

using net::HeaderField;
using speedybox::testing::tuple_n;

StateFunction named_sf(std::string_view name,
                       PayloadAccess access = PayloadAccess::kIgnore) {
  return StateFunction{[](net::Packet&, const net::ParsedPacket&) {},
                       access, name};
}

TEST(FlowRecord, RecordsHeaderActionsInOrder) {
  FlowRecord record;
  record.add_header_action(0, HeaderAction::modify(HeaderField::kSrcIp, 5));
  record.add_header_action(0, HeaderAction::modify(HeaderField::kSrcPort, 6));
  const auto actions = record.header_actions_of(0);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].field, HeaderField::kSrcIp);
  EXPECT_EQ(actions[1].field, HeaderField::kSrcPort);
}

TEST(FlowRecord, StateFunctionQueuePreservesOrder) {
  FlowRecord record;
  std::vector<int> calls;
  for (int i = 0; i < 3; ++i) {
    record.add_state_function(
        1, StateFunction{[&calls, i](net::Packet&, const net::ParsedPacket&) {
                           calls.push_back(i);
                         },
                         PayloadAccess::kRead, "sf"});
  }
  net::Packet packet;
  net::ParsedPacket parsed;
  for (const auto& handler : record.handlers) handler(packet, parsed);
  EXPECT_EQ(calls, (std::vector<int>{0, 1, 2}));
}

TEST(FlowRecord, CompileListsTheLinesTheFastPathReads) {
  // In read order: the condition array, the handler array, then the
  // recorded args; one entry per cache line, null args left out. The two
  // args share a line, so at most five lines are named.
  alignas(64) static std::uint64_t cell[2] = {};
  FlowRecord record;
  StateFunction count = named_sf("count");
  count.args = &cell[1];
  record.add_state_function(0, std::move(count));
  record.add_state_function(1, named_sf("no-args"));
  record.register_event(0, "limit", [] { return false; }, {}, true, &cell[0]);
  record.compile();

  const auto line = [](const void* address) {
    return reinterpret_cast<std::uintptr_t>(address) / util::kCacheLineSize;
  };
  std::vector<std::uintptr_t> lines;
  for (std::uint8_t i = 0; i < record.hot_count; ++i) {
    lines.push_back(line(record.hot_addresses[i]));
  }
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), line(record.conditions.data()));
  EXPECT_EQ(lines.back(), line(&cell[0]));
  EXPECT_NE(std::find(lines.begin(), lines.end(),
                      line(record.handlers.data())),
            lines.end());
  std::vector<std::uintptr_t> unique = lines;
  std::sort(unique.begin(), unique.end());
  EXPECT_EQ(std::unique(unique.begin(), unique.end()), unique.end());

  record.reset();
  EXPECT_EQ(record.hot_count, 0u);
}

TEST(FlowRecord, CompileBuildsOneBatchPerNf) {
  FlowRecord record;
  record.add_state_function(0, named_sf("a", PayloadAccess::kRead));
  record.add_state_function(0, named_sf("b", PayloadAccess::kWrite));
  record.add_state_function(3, named_sf("c"));
  record.add_state_function(4, named_sf("d", PayloadAccess::kRead));
  record.add_state_function(4, named_sf("e"));
  record.compile();
  ASSERT_EQ(record.batches.size(), 3u);
  EXPECT_EQ(record.batches[0].nf_index, 0u);
  EXPECT_EQ(record.batches[0].begin, 0u);
  EXPECT_EQ(record.batches[0].end, 2u);
  EXPECT_EQ(record.batches[0].access, PayloadAccess::kWrite);
  EXPECT_EQ(record.batches[1].nf_index, 3u);
  EXPECT_EQ(record.batches[1].begin, 2u);
  EXPECT_EQ(record.batches[1].end, 3u);
  EXPECT_EQ(record.batches[1].access, PayloadAccess::kIgnore);
  EXPECT_EQ(record.batches[2].nf_index, 4u);
  EXPECT_EQ(record.batches[2].begin, 3u);
  EXPECT_EQ(record.batches[2].end, 5u);
  EXPECT_EQ(record.batches[2].access, PayloadAccess::kRead);
  EXPECT_EQ(record.version, 1u);
}

// A batch's access is the highest of its functions': Write over Read over
// Ignore, whatever order they were recorded in.
TEST(BatchAccess, HighestPriorityWins) {
  const auto access_of = [](std::vector<PayloadAccess> accesses) {
    FlowRecord record;
    for (const PayloadAccess access : accesses) {
      record.add_state_function(0, named_sf("sf", access));
    }
    record.compile();
    EXPECT_EQ(record.batches.size(), 1u);
    return record.batches.front().access;
  };
  using enum PayloadAccess;
  EXPECT_EQ(access_of({kRead, kIgnore}), kRead);
  EXPECT_EQ(access_of({kIgnore, kRead}), kRead);
  EXPECT_EQ(access_of({kIgnore, kIgnore}), kIgnore);
  EXPECT_EQ(access_of({kRead, kIgnore, kWrite}), kWrite);
  EXPECT_EQ(access_of({kWrite, kRead, kIgnore}), kWrite);
}

TEST(FlowRecord, ReplaceHeaderActionsTouchesOnlyTheOwner) {
  FlowRecord record;
  record.add_header_action(0, HeaderAction::modify(HeaderField::kSrcIp, 1));
  record.add_header_action(2, HeaderAction::modify(HeaderField::kDstIp, 1));
  record.add_header_action(2, HeaderAction::modify(HeaderField::kDstPort, 9));
  record.replace_header_actions(2, {HeaderAction::drop()});
  ASSERT_EQ(record.header_actions_of(2).size(), 1u);
  EXPECT_EQ(record.header_actions_of(2)[0].type, HeaderActionType::kDrop);
  ASSERT_EQ(record.header_actions_of(0).size(), 1u);
  EXPECT_EQ(record.header_actions_of(0)[0].field, HeaderField::kSrcIp);
}

TEST(FlowRecord, ReplaceStateFunctionsRetiresTheOldArrays) {
  FlowRecord record;
  record.add_state_function(0, named_sf("keep"));
  record.add_state_function(1, named_sf("old"));
  record.compile();
  const HandlerArrays before = record.handler_arrays();

  record.replace_state_functions(1, {named_sf("new", PayloadAccess::kWrite),
                                     named_sf("newer")});
  record.compile();
  ASSERT_EQ(record.functions.size(), 3u);
  ASSERT_EQ(record.handlers.size(), 3u);
  EXPECT_EQ(record.functions[0].name, "keep");
  EXPECT_EQ(record.functions[1].name, "new");
  EXPECT_EQ(record.functions[2].name, "newer");
  ASSERT_EQ(record.batches.size(), 2u);
  EXPECT_EQ(record.batches[1].begin, 1u);
  EXPECT_EQ(record.batches[1].end, 3u);
  EXPECT_EQ(record.batches[1].access, PayloadAccess::kWrite);
  // A descriptor still holding the old arrays reads them unchanged.
  ASSERT_EQ(record.retired.size(), 1u);
  EXPECT_EQ(before.handlers.data(), record.retired[0].first.data());
  EXPECT_EQ(before.handlers.size(), 2u);
  EXPECT_EQ(before.batches.size(), 2u);
  EXPECT_EQ(before.batches[1].end, 2u);
}

TEST(FlowRecord, TeardownHooksRunByNfRange) {
  FlowRecord record;
  std::vector<std::uint32_t> ran;
  for (std::uint32_t nf = 0; nf < 3; ++nf) {
    record.add_teardown_hook(nf, [&ran, nf] { ran.push_back(nf); });
  }
  record.run_teardown_hooks(1, 3);
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{1, 2}));
  record.run_teardown_hooks();
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{1, 2, 0, 1, 2}));
}

TEST(FlowRecord, ResetKeepsCapacityButNoEntries) {
  FlowRecord record;
  record.open = true;
  bool hook_ran = false;
  record.add_header_action(0, HeaderAction::modify(HeaderField::kSrcIp, 5));
  for (int i = 0; i < 4; ++i) record.add_state_function(0, named_sf("sf"));
  record.add_state_function(1, named_sf("sf", PayloadAccess::kRead));
  record.register_event(0, "ev", [] { return false; }, {}, true);
  record.add_teardown_hook(1, [&hook_ran] { hook_ran = true; });
  record.compile();
  const auto capacities = [&record] {
    return std::vector<std::size_t>{
        record.header_actions.capacity(), record.action_owners.capacity(),
        record.handlers.capacity(),       record.functions.capacity(),
        record.conditions.capacity(),     record.events.capacity(),
        record.teardown_hooks.capacity(), record.batches.capacity(),
        record.schedule.members.capacity(), record.schedule.ends.capacity()};
  };
  const std::vector<std::size_t> before = capacities();
  record.reset();
  EXPECT_FALSE(record.open);
  EXPECT_FALSE(record.consolidated);
  EXPECT_TRUE(record.header_actions.empty());
  EXPECT_TRUE(record.action_owners.empty());
  EXPECT_TRUE(record.functions.empty());
  EXPECT_TRUE(record.handlers.empty());
  EXPECT_TRUE(record.events.empty());
  EXPECT_TRUE(record.conditions.empty());
  EXPECT_TRUE(record.teardown_hooks.empty());
  EXPECT_TRUE(record.batches.empty());
  EXPECT_EQ(record.version, 0u);
  // Every array keeps its storage for the next flow at the slot.
  EXPECT_EQ(capacities(), before);
  // A hook recorded before the reset is gone with its flow.
  record.run_teardown_hooks();
  EXPECT_FALSE(hook_ran);
}

// The recorded callables hold their captures inline: a capture that owns
// memory, or is larger than the inline capacity, does not compile.
TEST(FlowRecord, RecordedCallablesRefuseCapturesThatDoNotFit) {
  const std::vector<int> owned{1, 2, 3};
  const auto owns_memory = [owned](net::Packet&, const net::ParsedPacket&) {
    (void)owned;
  };
  const std::array<std::uint64_t, 5> wide{};
  const auto too_large = [wide] { return wide[0] == 0; };
  const auto hook_owns_memory = [owned] { (void)owned; };
  static_assert(
      !std::is_constructible_v<StateFunctionHandler, decltype(owns_memory)>);
  static_assert(
      !std::is_constructible_v<ConditionHandler, decltype(too_large)>);
  static_assert(
      !std::is_constructible_v<TeardownHandler, decltype(hook_owns_memory)>);
  // [this, tuple, pointer], Snort's capture, is the largest that fits.
  struct Capture {
    const void* self;
    net::FiveTuple tuple;
    const void* args;
  };
  const auto snort_sized = [capture = Capture{}](net::Packet&,
                                                 const net::ParsedPacket&) {
    (void)capture;
  };
  static_assert(sizeof(snort_sized) == 32);
  static_assert(
      std::is_constructible_v<StateFunctionHandler, decltype(snort_sized)>);
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_TRUE(too_large());
}

// --- Events, as the Global MAT's fast path evaluates them ----------------

class RecordEvents : public ::testing::Test {
 protected:
  /// Register on flow `fid` an event whose condition reads `*flag` and
  /// whose update turns NF 0's actions into a drop.
  void add_event(std::uint32_t fid, const bool* flag, bool one_shot = true,
                 std::string_view name = "ev") {
    FlowRecord* record = mat_.record(fid);
    if (record == nullptr) record = &mat_.open_flow(fid);
    SpeedyBoxContext ctx{*record, 0, fid};
    ctx.register_event(
        name, [flag] { return *flag; },
        [] {
          EventUpdate update;
          update.header_actions = {HeaderAction::drop()};
          return update;
        },
        one_shot);
  }

  GlobalMat::FastPathResult run(std::uint32_t fid) {
    net::Packet packet = net::make_tcp_packet(tuple_n(fid), "x");
    packet.set_fid(fid);
    return mat_.process(packet);
  }

  GlobalMat mat_;
};

TEST_F(RecordEvents, ConditionFalseDoesNotTrigger) {
  bool flag = false;
  add_event(1, &flag);
  mat_.consolidate_flow(1);
  EXPECT_EQ(run(1).events_triggered, 0u);
  EXPECT_EQ(mat_.find(1)->events.size(), 1u);
  EXPECT_EQ(mat_.events_triggered(), 0u);
  EXPECT_EQ(mat_.checks_performed(), 1u);
}

TEST_F(RecordEvents, TriggerAppliesUpdateToTheSamePacket) {
  bool flag = true;
  add_event(1, &flag);
  mat_.consolidate_flow(1);
  const auto result = run(1);
  EXPECT_EQ(result.events_triggered, 1u);
  EXPECT_TRUE(result.dropped);
  EXPECT_TRUE(mat_.find(1)->action.drop);
}

TEST_F(RecordEvents, OneShotDeregistersAfterTrigger) {
  bool flag = true;
  add_event(1, &flag, /*one_shot=*/true);
  mat_.consolidate_flow(1);
  EXPECT_EQ(run(1).events_triggered, 1u);
  EXPECT_TRUE(mat_.find(1)->events.empty());
  EXPECT_EQ(run(1).events_triggered, 0u);
}

TEST_F(RecordEvents, PersistentKeepsFiring) {
  bool flag = true;
  add_event(1, &flag, /*one_shot=*/false);
  mat_.consolidate_flow(1);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run(1).events_triggered, 1u);
  flag = false;
  EXPECT_EQ(run(1).events_triggered, 0u);
  EXPECT_EQ(mat_.checks_performed(), 4u);
  EXPECT_EQ(mat_.events_triggered(), 3u);
}

TEST_F(RecordEvents, MultipleEventsPerFlowAllFire) {
  bool flag = true;
  add_event(1, &flag, true, "a");
  add_event(1, &flag, true, "b");
  mat_.consolidate_flow(1);
  const std::uint64_t before = mat_.consolidations();
  EXPECT_EQ(run(1).events_triggered, 2u);
  EXPECT_EQ(mat_.consolidations(), before + 2) << "one recompile per event";
}

TEST_F(RecordEvents, EventsIsolatedPerFlow) {
  bool flag = true;
  add_event(1, &flag);
  mat_.consolidate_flow(1);
  mat_.consolidate_flow(2);
  EXPECT_EQ(run(2).events_triggered, 0u);
  EXPECT_EQ(mat_.find(1)->events.size(), 1u);
}

TEST_F(RecordEvents, EraseFlowRemovesEvents) {
  bool flag = true;
  add_event(3, &flag);
  mat_.consolidate_flow(3);
  mat_.erase_flow(3);
  EXPECT_EQ(mat_.record(3), nullptr);
  EXPECT_FALSE(run(3).rule_hit);
}

}  // namespace
}  // namespace speedybox::core
