// Measurement mechanics of the fast path: per-rule batch-cost sampling,
// the learned critical-path fraction, parse-hint reuse, and timer-overhead
// bookkeeping.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/global_mat.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"
#include "util/cycle_clock.hpp"

namespace speedybox::core {
namespace {

using speedybox::testing::tuple_n;

StateFunction busy_sf(PayloadAccess access, int weight,
                      std::string_view name = "sf") {
  return StateFunction{
      [weight](net::Packet&, const net::ParsedPacket&) {
        volatile int x = 0;
        for (int i = 0; i < weight * 400; ++i) x = x + i;
      },
      access, name};
}

class FastPathMeasurement : public ::testing::Test {
 protected:
  /// Recording contexts of a two-NF chain (a, b) for flow `fid`.
  SpeedyBoxContext a(std::uint32_t fid) { return context(fid, 0); }
  SpeedyBoxContext b(std::uint32_t fid) { return context(fid, 1); }

  /// One fast-path packet under the cycle model (the measurements below
  /// are the model's).
  GlobalMat::FastPathResult run_packet(std::uint32_t fid) {
    net::Packet packet = net::make_tcp_packet(tuple_n(fid), "x");
    packet.set_fid(fid);
    return mat_.process(packet, nullptr, /*model=*/true);
  }

  GlobalMat mat_;

 private:
  SpeedyBoxContext context(std::uint32_t fid, std::size_t nf) {
    FlowRecord* record = mat_.record(fid);
    if (record == nullptr) record = &mat_.open_flow(fid);
    return SpeedyBoxContext{*record, nf, fid};
  }
};

TEST_F(FastPathMeasurement, SamplingPhaseReportsPerBatchPairs) {
  a(1).add_state_function(busy_sf(PayloadAccess::kRead, 2));
  b(1).add_state_function(busy_sf(PayloadAccess::kRead, 2));
  mat_.consolidate_flow(1);

  const auto result = run_packet(1);
  EXPECT_EQ(result.timer_pairs, 2u) << "sampling: one pair per batch";
  EXPECT_GT(result.sf_total_cycles, 0u);
  EXPECT_LE(result.sf_critical_path_cycles, result.sf_total_cycles);
}

TEST_F(FastPathMeasurement, WithoutTheModelNoTimerRunsAndNothingIsSampled) {
  int runs = 0;
  a(2).add_state_function(StateFunction{
      [&runs](net::Packet&, const net::ParsedPacket&) { ++runs; },
      PayloadAccess::kRead, "count"});
  b(2).add_state_function(busy_sf(PayloadAccess::kRead, 1));
  mat_.consolidate_flow(2);

  for (std::uint32_t i = 0; i <= FlowRecord::kCostSampleWindow; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(2), "x");
    packet.set_fid(2);
    const auto result = mat_.process(packet);
    EXPECT_TRUE(result.rule_hit);
    EXPECT_EQ(result.timer_pairs, 0u);
    EXPECT_EQ(result.sf_total_cycles, 0u);
    EXPECT_EQ(result.sf_critical_path_cycles, 0u);
  }
  EXPECT_EQ(runs, static_cast<int>(FlowRecord::kCostSampleWindow) + 1)
      << "the state functions still run on every packet";
  EXPECT_EQ(mat_.find(2)->cost_samples, 0u) << "no sampling window";
}

TEST_F(FastPathMeasurement, SteadyStateUsesOnePair) {
  a(2).add_state_function(busy_sf(PayloadAccess::kRead, 2));
  b(2).add_state_function(busy_sf(PayloadAccess::kRead, 2));
  mat_.consolidate_flow(2);

  for (std::uint32_t i = 0; i < FlowRecord::kCostSampleWindow; ++i) {
    run_packet(2);
  }
  const auto steady = run_packet(2);
  EXPECT_EQ(steady.timer_pairs, 1u);
  EXPECT_GT(steady.sf_total_cycles, 0u);
  EXPECT_LE(steady.sf_critical_path_cycles, steady.sf_total_cycles);
}

TEST_F(FastPathMeasurement, CriticalFractionLearnedForParallelBatches) {
  // Two equal READ batches in one group: the critical path is ~half the
  // total, and the learned fraction must reflect that in steady state.
  a(3).add_state_function(busy_sf(PayloadAccess::kRead, 4));
  b(3).add_state_function(busy_sf(PayloadAccess::kRead, 4));
  mat_.consolidate_flow(3);
  ASSERT_EQ(mat_.find(3)->schedule.group_count(), 1u);

  for (std::uint32_t i = 0; i <= FlowRecord::kCostSampleWindow; ++i) {
    run_packet(3);
  }
  const double fraction = mat_.find(3)->critical_fraction;
  EXPECT_GT(fraction, 0.3);
  EXPECT_LT(fraction, 0.8) << "two equal parallel batches -> fraction ~0.5";

  const auto steady = run_packet(3);
  EXPECT_NEAR(static_cast<double>(steady.sf_critical_path_cycles),
              static_cast<double>(steady.sf_total_cycles) * fraction,
              static_cast<double>(steady.sf_total_cycles) * 0.05);
}

TEST_F(FastPathMeasurement, SequentialBatchesKeepFractionNearOne) {
  a(4).add_state_function(busy_sf(PayloadAccess::kWrite, 3));
  b(4).add_state_function(busy_sf(PayloadAccess::kWrite, 3));
  mat_.consolidate_flow(4);
  ASSERT_EQ(mat_.find(4)->schedule.group_count(), 2u);

  for (std::uint32_t i = 0; i <= FlowRecord::kCostSampleWindow; ++i) {
    run_packet(4);
  }
  EXPECT_GT(mat_.find(4)->critical_fraction, 0.9);
}

TEST_F(FastPathMeasurement, ReconsolidationRestartsSampling) {
  a(5).add_state_function(busy_sf(PayloadAccess::kRead, 1));
  mat_.consolidate_flow(5);
  for (int i = 0; i < 12; ++i) run_packet(5);
  EXPECT_EQ(mat_.find(5)->cost_samples,
            FlowRecord::kCostSampleWindow);

  mat_.consolidate_flow(5);
  EXPECT_EQ(mat_.find(5)->cost_samples, 0u);
  EXPECT_DOUBLE_EQ(mat_.find(5)->critical_fraction, 1.0);
}

TEST_F(FastPathMeasurement, ParsedHintReusedWhenLayoutIntact) {
  // A modify-only rule: the hint from the classifier parse must be usable
  // and the state function must see correct payload offsets.
  a(6).add_header_action(HeaderAction::modify(net::HeaderField::kTtl, 7));
  std::string seen_payload;
  a(6).add_state_function(StateFunction{
      [&seen_payload](net::Packet& pkt, const net::ParsedPacket& parsed) {
        const auto payload =
            net::payload_view(static_cast<const net::Packet&>(pkt), parsed);
        seen_payload.assign(payload.begin(), payload.end());
      },
      PayloadAccess::kRead, "peek"});
  mat_.consolidate_flow(6);

  net::Packet packet = net::make_tcp_packet(tuple_n(6), "HINTED");
  packet.set_fid(6);
  const auto parsed = net::parse_packet(packet);
  mat_.process(packet, &*parsed);
  EXPECT_EQ(seen_payload, "HINTED");
}

TEST_F(FastPathMeasurement, StructuralRuleReparsesForStateFunctions) {
  // A rule with a trailing encap changes offsets; the state function must
  // still see the (re-parsed) payload, not stale hint offsets.
  a(7).add_header_action(HeaderAction::encap_ah(42));
  std::string seen_payload;
  b(7).add_state_function(StateFunction{
      [&seen_payload](net::Packet& pkt, const net::ParsedPacket& parsed) {
        const auto payload =
            net::payload_view(static_cast<const net::Packet&>(pkt), parsed);
        seen_payload.assign(payload.begin(), payload.end());
      },
      PayloadAccess::kRead, "peek"});
  mat_.consolidate_flow(7);

  net::Packet packet = net::make_tcp_packet(tuple_n(7), "TUNNELED");
  packet.set_fid(7);
  const auto parsed = net::parse_packet(packet);
  mat_.process(packet, &*parsed);
  EXPECT_EQ(seen_payload, "TUNNELED");
  EXPECT_TRUE(net::outer_ah_spi(packet).has_value());
}

TEST(TimerOverhead, CalibratedAndStable) {
  const std::uint64_t a = util::CycleClock::timer_overhead();
  const std::uint64_t b = util::CycleClock::timer_overhead();
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 2000u) << "a single rdtsc cannot cost microseconds";
}

TEST(TimerOverhead, SegmentSaturatesAtZero) {
  const std::uint64_t t = util::CycleClock::now();
  // A zero-length raw span minus overhead must clamp, not wrap.
  EXPECT_EQ(util::CycleClock::segment(t, t), 0u);
}

TEST(TimerOverhead, SegmentSubtractsOverhead) {
  const std::uint64_t overhead = util::CycleClock::timer_overhead();
  EXPECT_EQ(util::CycleClock::segment(100, 100 + overhead + 50), 50u);
}

}  // namespace
}  // namespace speedybox::core
