// Multi-tenant hosting specs (DESIGN.md §14): several independent chains
// (tenants) described as one serializable document, hosted concurrently on
// a shared shard pool with per-tenant latency SLOs.
//
// A TenantSpec extends the PR 8 deployment-plan data model with the policy
// identity the arbiter needs: tenant id, SLO target, contention weight, the
// tenant's traffic (a trace::WorkloadSpec for in-process drive), and the
// listener port that classifies wire traffic to it in --listen mode. A
// HostSpec groups the tenants, fixes the shared shard budget, and carries
// the enforcement-loop knobs. Both round-trip through strict JSON (unknown
// fields are errors), the same contract DeploymentPlan set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/overload.hpp"
#include "runtime/plan.hpp"
#include "telemetry/json.hpp"
#include "trace/workload_spec.hpp"

namespace speedybox::tenancy {

/// Malformed tenant/host spec; messages name the offending field.
using SpecError = plan::PlanError;

struct TenantSpec {
  /// Unique within the host; becomes the telemetry tenant label.
  std::string id;
  /// The tenant's chain + executor shape. Only the shapes that record
  /// per-packet latency for the SLO loop host (runner, sharded) —
  /// validate() rejects the pipeline/onvm executors loudly.
  plan::DeploymentPlan plan;
  /// Windowed p99 per-packet latency objective, microseconds.
  double slo_us = 50.0;
  /// Contention weight: under pressure the arbiter picks the offender by
  /// offered-load-per-weight, so a heavier tenant may legitimately offer
  /// proportionally more before being tightened.
  double weight = 1.0;
  /// Live mode: UDP/TCP listener port classifying wire traffic to this
  /// tenant (0 = ephemeral, reported at bind time).
  std::uint16_t listen_port = 0;
  /// In-process drive (chainsim --tenancy without --listen).
  trace::WorkloadSpec workload;

  telemetry::Json to_json() const;
  static TenantSpec from_json(const telemetry::Json& json);

  /// Non-empty id, valid plan restricted to runner/sharded, positive
  /// SLO/weight. Throws SpecError.
  void validate() const;

  bool operator==(const TenantSpec& other) const {
    return to_json().dump() == other.to_json().dump();
  }
};

/// SLO enforcement-loop knobs (the pure policy in slo_policy.hpp).
struct EnforcementConfig {
  /// Arbiter cadence: one tick per this many host-wide arrivals
  /// (in-process) or one per poll interval (live).
  std::uint64_t window_packets = 1024;
  /// Windows a tenant must breach its SLO before the arbiter acts.
  int breach_streak = 2;
  /// Calm windows (p99 under calm_fraction * SLO) before de-escalation.
  int calm_streak = 4;
  double calm_fraction = 0.5;
  /// Post-action settle windows during which no further action fires.
  int cooldown_windows = 2;
  /// Admission tightening: the offender's per-window budget multiplies by
  /// this on escalation (and divides on de-escalation), floored at
  /// min_budget packets per window.
  double tighten_factor = 0.5;
  std::uint64_t min_budget = 64;
  /// Escalation stages that can be disabled wholesale: admission
  /// tightening + drop-policy escalation, and shard reallocation.
  bool tighten_admission = true;
  bool reallocate_shards = true;

  telemetry::Json to_json() const;
  static EnforcementConfig from_json(const telemetry::Json& json);
  void validate() const;
};

struct HostSpec {
  std::string name = "host";
  std::vector<TenantSpec> tenants;
  /// Shared shard budget across every sharded tenant; 0 = the sum of the
  /// tenants' planned shard counts (no headroom).
  std::size_t pool_shards = 0;
  EnforcementConfig enforcement;

  telemetry::Json to_json() const;
  static HostSpec from_json(const telemetry::Json& json);
  /// from_json over parsed text. Throws SpecError on syntax errors too.
  static HostSpec parse(std::string_view text);
  std::string dump() const { return to_json().dump(); }

  /// Every tenant valid; ids unique; non-zero listener ports unique; the
  /// planned shard counts fit the pool. Throws SpecError.
  void validate() const;

  /// The effective pool budget (pool_shards, or the planned sum when 0).
  std::size_t effective_pool_shards() const noexcept;
};

}  // namespace speedybox::tenancy
