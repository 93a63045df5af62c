// The SLO arbitration policy (DESIGN.md §14): pure, deterministic state
// machine deciding, once per enforcement window, how the host reacts to a
// tenant breaching its latency SLO.
//
// Per-offender escalation ladder (one step per acted-on breach, one step
// back per sustained calm):
//
//   L0 normal      — unlimited admission, no interference
//   L1 tightened   — per-window admission budget (tail-drop gate), budget
//                    multiplied by tighten_factor per further escalation
//   L2 flow-fair   — the gate switches to flow-consistent hash-band
//                    shedding (surviving flows keep their full packet
//                    sequence — goodput, not just throughput)
//   L3 reallocated — one shard moves offender -> victim through the
//                    quiesce/migrate machinery (control::reshard)
//
// The victim is the tenant with the longest breach streak; the offender is
// the non-breaching tenant with the highest offered-load-per-weight (an
// adversarial tenant floods, so its offered/weight dominates). Free pool
// headroom is always preferred over taking the offender's shard. Like
// control::ScalingPolicy, the class is pure — it never touches a runtime —
// so the whole ladder is unit-testable from synthetic signal sequences.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/overload.hpp"
#include "tenancy/tenant_spec.hpp"

namespace speedybox::tenancy {

/// No admission limit (the L0 budget).
inline constexpr std::uint64_t kUnlimitedBudget = UINT64_MAX;

/// One enforcement window's view of one tenant, from telemetry deltas.
struct TenantSignals {
  /// Windowed p99 per-packet latency (fast + slow path merged), µs.
  double p99_latency_us = 0.0;
  /// Host-gate arrivals within the window (before any shedding).
  std::uint64_t window_offered = 0;
};

/// Static facts the policy needs about a tenant, paired with its signals.
struct TenantInput {
  double slo_us = 50.0;
  double weight = 1.0;
  /// Sharded tenants can give/take shards; runner tenants only gate.
  bool sharded = false;
  std::size_t active_shards = 0;
  TenantSignals signals;
};

/// What the host applies to one tenant after a tick.
struct TenantDecision {
  /// Packets per enforcement window (kUnlimitedBudget = no gate).
  std::uint64_t admission_budget = kUnlimitedBudget;
  runtime::DropPolicy gate_policy = runtime::DropPolicy::kTailDrop;
  /// Escalation ladder position, 0..3.
  int escalation = 0;
  /// Shard reallocation: +1 / -1 / 0 this tick (the host pairs the +1 and
  /// -1 into one migration event).
  int shard_delta = 0;
};

class SloEnforcementPolicy {
 public:
  explicit SloEnforcementPolicy(const EnforcementConfig& config,
                                std::size_t tenant_count);

  /// One enforcement window: update per-tenant streaks, pick victim and
  /// offender, escalate/de-escalate, and return the per-tenant decisions
  /// (index-aligned with `tenants`, whose order and size must be stable
  /// across ticks).
  std::vector<TenantDecision> tick(const std::vector<TenantInput>& tenants,
                                   std::size_t pool_shards);

  /// Current ladder position of tenant `i` (tests/diagnostics).
  int escalation(std::size_t i) const { return states_[i].escalation; }
  int breach_streak(std::size_t i) const {
    return states_[i].breach_streak;
  }

 private:
  struct TenantState {
    int breach_streak = 0;
    int calm_streak = 0;
    int escalation = 0;
    std::uint64_t budget = kUnlimitedBudget;
  };

  TenantDecision decision_of(const TenantState& state) const;

  EnforcementConfig config_;
  std::vector<TenantState> states_;
  int cooldown_ = 0;
};

}  // namespace speedybox::tenancy
