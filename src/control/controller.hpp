// Elastic control plane (DESIGN.md §10): telemetry-driven autoscaling of
// the flow-sharded runtime.
//
//   ShardedRuntime ──ScaleHook every interval_packets──► Controller::tick
//     Registry::snapshot()  ─►  window deltas  ─►  ControlSignals
//     ScalingPolicy::decide ─►  target shard count (hysteresis, ±1 step)
//     control::reshard      ─►  quiesce + migrate + resize
//
// Everything runs on the dispatcher thread at a packet boundary, so the
// control loop is deterministic with respect to the packet sequence: the
// same trace and configuration always produce the same scaling schedule —
// the property the autoscale differential-equivalence harness checks.
//
// Signals are derived exclusively from race-free sources: telemetry cells
// (single-writer relaxed atomics, snapshot-safe mid-run) and
// dispatcher-owned ring occupancy. The controller never reads a worker's
// ChainRunner state while the worker runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/flow_migration.hpp"
#include "runtime/sharded_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "util/histogram.hpp"

namespace speedybox::control {

struct AutoscaleConfig {
  /// Latency objective for the per-packet p99 (fast + slow path merged),
  /// microseconds.
  double slo_us = 50.0;
  std::size_t min_shards = 1;
  std::size_t max_shards = 4;
  /// Control-loop cadence: one tick per this many dispatched packets.
  std::uint64_t interval_packets = 2048;
  /// Windows over SLO (or pressure) before scaling up.
  int up_streak = 2;
  /// Calm windows (p99 below scale_down_fraction * slo_us, no pressure)
  /// before scaling down.
  int down_streak = 4;
  /// Post-decision windows during which no further decision fires (lets
  /// the resharded system settle before it is judged again).
  int cooldown_windows = 2;
  double scale_down_fraction = 0.5;
  /// Queue-pressure escalation: worst active ring fill fraction at or
  /// above this counts as a breach even if the p99 still meets the SLO.
  double occupancy_high = 0.5;
  /// Admission-pressure escalation: window admit fraction below this
  /// (packets shed by the overload machinery) counts as a breach.
  double admit_low = 0.99;
};

/// One control window's view of the data path.
struct ControlSignals {
  double p99_latency_us = 0.0;
  double ring_occupancy = 0.0;  // worst active shard, fraction of capacity
  double admit_fraction = 1.0;  // admitted / offered within the window
  std::uint64_t window_packets = 0;
};

/// Pure, deterministic hysteresis policy: given one window's signals and
/// the current shard count, produce the target count. Never moves more
/// than one shard per decision; clamps to [min_shards, max_shards].
class ScalingPolicy {
 public:
  explicit ScalingPolicy(const AutoscaleConfig& config) : config_(config) {}

  std::size_t decide(const ControlSignals& signals, std::size_t active);

  int breach_streak() const noexcept { return breach_streak_; }
  int calm_streak() const noexcept { return calm_streak_; }

 private:
  AutoscaleConfig config_;
  int breach_streak_ = 0;
  int calm_streak_ = 0;
  int cooldown_ = 0;
};

class Controller {
 public:
  /// Registers its own metric shard (`label`) in `registry` for the
  /// control-plane cells: active_shards, scale_events, migrated_flows,
  /// migration_cycles. The registry must outlive the controller.
  Controller(AutoscaleConfig config, telemetry::Registry& registry,
             std::string label = "controller");

  /// Validate the runtime (every NF must support migration — throws
  /// std::logic_error naming the offender otherwise) and install the
  /// control loop as its scale hook at config.interval_packets.
  void attach(runtime::ShardedRuntime& runtime);

  /// One control decision: snapshot telemetry, diff against the previous
  /// window, decide, and reshard if the target moved. Runs on the
  /// dispatcher thread (the scale hook); exposed for tests.
  void tick(runtime::ShardedRuntime& runtime);

  /// Window signals from the registry's current cumulative snapshot.
  /// Stateful: advances the previous-window baseline.
  ControlSignals compute_signals(const runtime::ShardedRuntime& runtime);

  const AutoscaleConfig& config() const noexcept { return config_; }
  /// Every resharding operation executed, in order.
  const std::vector<ReshardReport>& scale_events() const noexcept {
    return events_;
  }

 private:
  AutoscaleConfig config_;
  telemetry::Registry* registry_;
  telemetry::ShardMetrics* metrics_;
  ScalingPolicy policy_;
  std::vector<ReshardReport> events_;
  // Previous-window cumulative baselines (counters are monotonic; the
  // merged histogram buckets only grow), so deltas isolate the window.
  std::uint64_t prev_packets_ = 0;
  std::uint64_t prev_admitted_ = 0;
  std::uint64_t prev_shed_ = 0;
  util::LogHistogram prev_latency_;
};

}  // namespace speedybox::control
