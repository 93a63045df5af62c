// SloEnforcementPolicy ladder: pure state machine, driven from synthetic
// per-window signals (no runtime, no clocks). Mirrors the discipline of
// the control::ScalingPolicy tests: every transition of DESIGN.md §14's
// escalation ladder is exercised from canned signal sequences.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tenancy/slo_policy.hpp"

namespace speedybox::tenancy {
namespace {

EnforcementConfig test_config() {
  EnforcementConfig config;
  config.breach_streak = 2;
  config.calm_streak = 2;
  config.calm_fraction = 0.5;
  config.cooldown_windows = 1;
  config.tighten_factor = 0.5;
  config.min_budget = 4;
  return config;
}

TenantInput make_input(double slo_us, double weight, bool sharded,
                       std::size_t shards, double p99_us,
                       std::uint64_t offered) {
  TenantInput input;
  input.slo_us = slo_us;
  input.weight = weight;
  input.sharded = sharded;
  input.active_shards = shards;
  input.signals.p99_latency_us = p99_us;
  input.signals.window_offered = offered;
  return input;
}

/// Victim breaching at index 0, offender flooding at index 1, both
/// sharded 2+2 — the canonical adversarial-tenant window.
std::vector<TenantInput> adversarial_window() {
  return {make_input(10.0, 1.0, true, 2, /*p99=*/50.0, /*offered=*/100),
          make_input(1000.0, 1.0, true, 2, /*p99=*/1.0, /*offered=*/1000)};
}

TEST(SloPolicy, NoBreachMeansNoInterference) {
  SloEnforcementPolicy policy(test_config(), 2);
  const std::vector<TenantInput> window = {
      make_input(50.0, 1.0, true, 2, 10.0, 500),
      make_input(50.0, 1.0, true, 2, 12.0, 500)};
  for (int tick = 0; tick < 5; ++tick) {
    const auto decisions = policy.tick(window, 4);
    for (const TenantDecision& decision : decisions) {
      EXPECT_EQ(decision.admission_budget, kUnlimitedBudget);
      EXPECT_EQ(decision.gate_policy, runtime::DropPolicy::kTailDrop);
      EXPECT_EQ(decision.escalation, 0);
      EXPECT_EQ(decision.shard_delta, 0);
    }
  }
}

TEST(SloPolicy, BreachStreakGatesTheFirstAction) {
  SloEnforcementPolicy policy(test_config(), 2);
  // Window 1: streak 1 < breach_streak 2 — no action yet.
  auto decisions = policy.tick(adversarial_window(), 4);
  EXPECT_EQ(decisions[1].escalation, 0);
  EXPECT_EQ(decisions[1].admission_budget, kUnlimitedBudget);
  // Window 2: streak reaches 2 — the offender (highest offered/weight)
  // steps to L1 with its budget tightened from its own offered load.
  decisions = policy.tick(adversarial_window(), 4);
  EXPECT_EQ(decisions[1].escalation, 1);
  EXPECT_EQ(decisions[1].admission_budget, 500u);  // 1000 * 0.5
  EXPECT_EQ(decisions[1].gate_policy, runtime::DropPolicy::kTailDrop);
  // The victim is never tightened.
  EXPECT_EQ(decisions[0].escalation, 0);
  EXPECT_EQ(decisions[0].admission_budget, kUnlimitedBudget);
}

TEST(SloPolicy, LadderEscalatesThroughFlowFairToReallocation) {
  SloEnforcementPolicy policy(test_config(), 2);
  policy.tick(adversarial_window(), 4);
  auto decisions = policy.tick(adversarial_window(), 4);  // acts: L1
  EXPECT_EQ(decisions[1].escalation, 1);

  // Cooldown window: pressure keeps building but no action fires.
  decisions = policy.tick(adversarial_window(), 4);
  EXPECT_EQ(decisions[1].escalation, 1);

  // Streak rebuilds to 2 -> second action: L2, flow-fair gate, budget
  // halves again.
  policy.tick(adversarial_window(), 4);
  decisions = policy.tick(adversarial_window(), 4);
  EXPECT_EQ(decisions[1].escalation, 2);
  EXPECT_EQ(decisions[1].gate_policy, runtime::DropPolicy::kPerFlowFair);
  EXPECT_EQ(decisions[1].admission_budget, 250u);

  // Streak rebuilds during the cooldown window, so the very next tick is
  // the third action: L3 — with no pool headroom the offender gives one
  // shard and the victim takes it, paired in one tick.
  decisions = policy.tick(adversarial_window(), 4);
  EXPECT_EQ(decisions[1].escalation, 3);
  EXPECT_EQ(decisions[1].shard_delta, -1);
  EXPECT_EQ(decisions[0].shard_delta, +1);
  EXPECT_EQ(decisions[1].admission_budget, 125u);
}

TEST(SloPolicy, FreePoolHeadroomIsClaimedBeforeOffenderShards) {
  SloEnforcementPolicy policy(test_config(), 2);
  policy.tick(adversarial_window(), /*pool_shards=*/5);
  const auto decisions = policy.tick(adversarial_window(), 5);
  // 4 allocated, pool of 5: the victim grows out of the free headroom and
  // the offender keeps its shards (it is still admission-tightened).
  EXPECT_EQ(decisions[0].shard_delta, +1);
  EXPECT_EQ(decisions[1].shard_delta, 0);
  EXPECT_EQ(decisions[1].escalation, 1);
}

TEST(SloPolicy, SelfInflictedBreachNeverTightensAnInnocentNeighbour) {
  SloEnforcementPolicy policy(test_config(), 2);
  // The breaching tenant is its own heaviest load (1000 offered/weight vs
  // the neighbour's 10): no offender, no headroom, so nothing to do.
  const std::vector<TenantInput> window = {
      make_input(10.0, 1.0, true, 2, 50.0, 1000),
      make_input(1000.0, 1.0, true, 2, 1.0, 10)};
  for (int tick = 0; tick < 4; ++tick) {
    const auto decisions = policy.tick(window, 4);
    EXPECT_EQ(decisions[1].escalation, 0);
    EXPECT_EQ(decisions[1].admission_budget, kUnlimitedBudget);
    EXPECT_EQ(decisions[0].shard_delta, 0);
  }
  // With no qualifying action the victim's streak keeps growing — the
  // arbiter stays ready to claim headroom the moment some appears.
  EXPECT_GE(policy.breach_streak(0), 4);
  const auto decisions = policy.tick(window, /*pool_shards=*/5);
  EXPECT_EQ(decisions[0].shard_delta, +1);
}

TEST(SloPolicy, WeightScalesTheOffenderChoice) {
  SloEnforcementPolicy policy(test_config(), 3);
  // Tenant 2 offers less than tenant 1 but at a fraction of the weight:
  // per-weight it is the heavier offender.
  const std::vector<TenantInput> window = {
      make_input(10.0, 1.0, true, 2, 50.0, 100),
      make_input(1000.0, 4.0, true, 2, 1.0, 1200),  // 300 per weight
      make_input(1000.0, 1.0, true, 2, 1.0, 800)};  // 800 per weight
  policy.tick(window, 6);
  const auto decisions = policy.tick(window, 6);
  EXPECT_EQ(decisions[1].escalation, 0);
  EXPECT_EQ(decisions[2].escalation, 1);
  EXPECT_EQ(decisions[2].admission_budget, 400u);  // 800 * 0.5
}

TEST(SloPolicy, CalmStreakDeescalatesAndLoosensTheBudget) {
  SloEnforcementPolicy policy(test_config(), 2);
  policy.tick(adversarial_window(), 4);
  policy.tick(adversarial_window(), 4);  // offender at L1, budget 500
  // Calm from here on: the victim recovers, the offender idles. One
  // cooldown window passes, then calm_streak = 2 de-escalates.
  const std::vector<TenantInput> calm = {
      make_input(10.0, 1.0, true, 2, 1.0, 100),
      make_input(1000.0, 1.0, true, 2, 0.0, 0)};  // idle counts as calm
  policy.tick(calm, 4);  // cooldown
  policy.tick(calm, 4);  // calm streak 2 -> de-escalate to L0
  EXPECT_EQ(policy.escalation(1), 0);
  const auto decisions = policy.tick(calm, 4);
  EXPECT_EQ(decisions[1].admission_budget, kUnlimitedBudget);
  EXPECT_EQ(decisions[1].escalation, 0);
}

TEST(SloPolicy, DisabledTighteningJumpsStraightToReallocation) {
  EnforcementConfig config = test_config();
  config.tighten_admission = false;
  SloEnforcementPolicy policy(config, 2);
  policy.tick(adversarial_window(), 4);
  const auto decisions = policy.tick(adversarial_window(), 4);
  // The only rung with teeth is L3: the offender jumps to it, but its
  // admission budget stays untouched.
  EXPECT_EQ(decisions[1].escalation, 3);
  EXPECT_EQ(decisions[1].admission_budget, kUnlimitedBudget);
  EXPECT_EQ(decisions[1].shard_delta, -1);
  EXPECT_EQ(decisions[0].shard_delta, +1);
}

TEST(SloPolicy, RunnerTenantsOnlyGate) {
  SloEnforcementPolicy policy(test_config(), 2);
  // Neither tenant is sharded: the ladder still tightens admission but no
  // shard ever moves.
  std::vector<TenantInput> window = adversarial_window();
  window[0].sharded = false;
  window[0].active_shards = 0;
  window[1].sharded = false;
  window[1].active_shards = 0;
  for (int tick = 0; tick < 10; ++tick) {
    const auto decisions = policy.tick(window, 4);
    EXPECT_EQ(decisions[0].shard_delta, 0);
    EXPECT_EQ(decisions[1].shard_delta, 0);
  }
  EXPECT_GE(policy.escalation(1), 1);
}

TEST(SloPolicy, BudgetFloorsAtMinBudget) {
  EnforcementConfig config = test_config();
  config.cooldown_windows = 0;
  SloEnforcementPolicy policy(config, 2);
  std::uint64_t budget = kUnlimitedBudget;
  // Halving from 1000 reaches the floor of 4 after eight actions (one
  // action per two windows: streak rebuild + act, no cooldown).
  for (int tick = 0; tick < 20; ++tick) {
    budget = policy.tick(adversarial_window(), 4)[1].admission_budget;
  }
  EXPECT_EQ(budget, config.min_budget);
}

TEST(SloPolicy, TenantCountMustStayStable) {
  SloEnforcementPolicy policy(test_config(), 2);
  const std::vector<TenantInput> three(3);
  EXPECT_THROW(policy.tick(three, 4), std::logic_error);
  EXPECT_THROW(SloEnforcementPolicy(test_config(), 0), std::logic_error);
}

}  // namespace
}  // namespace speedybox::tenancy
