#include "core/api.hpp"

#include <gtest/gtest.h>

#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::core {
namespace {

using speedybox::testing::tuple_n;

class ApiTest : public ::testing::Test {
 protected:
  ApiTest() : ctx_(record_, 2, 42) {}

  FlowRecord record_;
  SpeedyBoxContext ctx_;
};

TEST_F(ApiTest, FidExposed) { EXPECT_EQ(ctx_.fid(), 42u); }

TEST_F(ApiTest, AddHeaderActionRecordsUnderNf) {
  ctx_.add_header_action(HeaderAction::drop());
  ASSERT_EQ(record_.header_actions_of(2).size(), 1u);
  EXPECT_EQ(record_.header_actions_of(2)[0].type, HeaderActionType::kDrop);
}

TEST_F(ApiTest, AddStateFunctionRecordsUnderNf) {
  ctx_.add_state_function(
      StateFunction{[](net::Packet&, const net::ParsedPacket&) {},
                    PayloadAccess::kRead, "sf"});
  ASSERT_EQ(record_.functions.size(), 1u);
  EXPECT_EQ(record_.functions[0].nf_index, 2u);
  EXPECT_EQ(record_.handlers.size(), 1u);
}

TEST_F(ApiTest, RegisterEventBindsNfIndex) {
  ctx_.register_event(
      "ev", [] { return true; }, [] { return EventUpdate{}; });
  ASSERT_EQ(record_.events.size(), 1u);
  EXPECT_EQ(record_.conditions.size(), 1u);
  EXPECT_EQ(record_.events[0].nf_index, 2u);
  EXPECT_EQ(record_.events[0].name, "ev");
  EXPECT_TRUE(record_.events[0].one_shot);
}

TEST_F(ApiTest, OnTeardownRegistersHook) {
  bool ran = false;
  ctx_.on_teardown([&ran] { ran = true; });
  record_.run_teardown_hooks();
  EXPECT_TRUE(ran);
}

TEST(ApiFigure2, NfExtractFidReadsMetadata) {
  net::Packet packet = net::make_tcp_packet(tuple_n(1), "x");
  packet.set_fid(0x777);
  EXPECT_EQ(nf_extract_fid(packet), 0x777u);
}

TEST(ApiFigure2, NullContextIsSafeNoOp) {
  // Baseline path: NFs call the C-style wrappers with a null context; the
  // calls must be no-ops, not crashes.
  localmat_add_HA(nullptr, HeaderAction::drop());
  localmat_add_SF(
      nullptr, [](net::Packet&, const net::ParsedPacket&) {},
      PayloadAccess::kRead);
  register_event(
      nullptr, "ev", [] { return false; }, [] { return EventUpdate{}; });
  SUCCEED();
}

TEST(ApiFigure2, WrappersForwardToContext) {
  FlowRecord record;
  SpeedyBoxContext ctx{record, 3, 7};

  localmat_add_HA(&ctx, HeaderAction::modify(net::HeaderField::kTtl, 1));
  localmat_add_SF(
      &ctx, [](net::Packet&, const net::ParsedPacket&) {},
      PayloadAccess::kWrite, "writer");
  register_event(
      &ctx, "ev", [] { return false; }, [] { return EventUpdate{}; });

  EXPECT_EQ(record.header_actions_of(3).size(), 1u);
  ASSERT_EQ(record.functions.size(), 1u);
  EXPECT_EQ(record.functions[0].nf_index, 3u);
  EXPECT_EQ(record.functions[0].access, PayloadAccess::kWrite);
  EXPECT_EQ(record.functions[0].name, "writer");
  EXPECT_EQ(record.events.size(), 1u);
}

}  // namespace
}  // namespace speedybox::core
