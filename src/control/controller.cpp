#include "control/controller.hpp"

#include <algorithm>
#include <utility>

#include "util/cycle_clock.hpp"
#include "util/histogram.hpp"

namespace speedybox::control {

std::size_t ScalingPolicy::decide(const ControlSignals& signals,
                                  std::size_t active) {
  const std::size_t floor = std::max<std::size_t>(1, config_.min_shards);
  const std::size_t ceiling = std::max(floor, config_.max_shards);
  const std::size_t clamped = std::clamp(active, floor, ceiling);
  if (clamped != active) return clamped;  // out-of-band: correct first

  // Streaks advance every window, cooldown or not, so pressure building
  // during the settle period still counts toward the next decision.
  const bool breach = signals.p99_latency_us > config_.slo_us ||
                      signals.ring_occupancy >= config_.occupancy_high ||
                      signals.admit_fraction < config_.admit_low;
  const bool calm =
      !breach && signals.window_packets > 0 &&
      signals.p99_latency_us <
          config_.slo_us * config_.scale_down_fraction;
  if (breach) {
    ++breach_streak_;
    calm_streak_ = 0;
  } else if (calm) {
    ++calm_streak_;
    breach_streak_ = 0;
  } else {
    breach_streak_ = 0;
    calm_streak_ = 0;
  }

  if (cooldown_ > 0) {
    --cooldown_;
    return active;
  }
  if (breach_streak_ >= config_.up_streak && active < ceiling) {
    breach_streak_ = 0;
    calm_streak_ = 0;
    cooldown_ = config_.cooldown_windows;
    return active + 1;
  }
  if (calm_streak_ >= config_.down_streak && active > floor) {
    breach_streak_ = 0;
    calm_streak_ = 0;
    cooldown_ = config_.cooldown_windows;
    return active - 1;
  }
  return active;
}

Controller::Controller(AutoscaleConfig config, telemetry::Registry& registry,
                       std::string label)
    : config_(config),
      registry_(&registry),
      metrics_(&registry.create_shard(std::move(label))),
      policy_(config) {}

void Controller::attach(runtime::ShardedRuntime& runtime) {
  require_migratable(runtime.shard_chain(0));
  metrics_->active_shards.set(runtime.active_shard_count());
  runtime.set_scale_hook(
      [this](runtime::ShardedRuntime& rt) { tick(rt); },
      config_.interval_packets);
}

ControlSignals Controller::compute_signals(
    const runtime::ShardedRuntime& runtime) {
  const telemetry::ShardSnapshot total = registry_->snapshot().aggregate();

  std::uint64_t packets = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  for (const auto& [name, value] : total.counters) {
    if (name == "packets") packets = value;
    else if (name == "admitted") admitted = value;
    else if (name == "shed_watermark" || name == "shed_early_drop" ||
             name == "shed_ring") {
      shed += value;
    }
  }

  // Per-packet latency = fast-path and slow-path cycle histograms merged;
  // the window's distribution is the cumulative histogram since the
  // previous tick's.
  util::LogHistogram latency;
  for (const auto& [name, hist] : total.histograms) {
    if (name == "fastpath_cycles" || name == "slowpath_cycles") {
      latency.merge(hist);
    }
  }
  const util::LogHistogram window_hist = latency.since(prev_latency_);

  ControlSignals signals;
  signals.window_packets = packets - prev_packets_;
  signals.p99_latency_us = util::CycleClock::to_us(
      static_cast<std::uint64_t>(window_hist.percentile(99.0)));
  signals.ring_occupancy = runtime.max_ring_occupancy();
  const std::uint64_t window_admitted = admitted - prev_admitted_;
  const std::uint64_t window_shed = shed - prev_shed_;
  const std::uint64_t offered = window_admitted + window_shed;
  signals.admit_fraction =
      offered == 0 ? 1.0
                   : static_cast<double>(window_admitted) /
                         static_cast<double>(offered);

  prev_packets_ = packets;
  prev_admitted_ = admitted;
  prev_shed_ = shed;
  prev_latency_ = std::move(latency);
  return signals;
}

void Controller::tick(runtime::ShardedRuntime& runtime) {
  const ControlSignals signals = compute_signals(runtime);
  const ReshardReport report = reshard(
      runtime, policy_.decide(signals, runtime.active_shard_count()));
  metrics_->active_shards.set(report.to_shards);
  // No change decided, or a refused reshard: no scale event.
  if (report.to_shards == report.from_shards) return;
  events_.push_back(report);
  metrics_->migration_cycles.record(report.migration_cycles);
  std::uint64_t migrated = 0;
  for (const ReshardReport& event : events_) migrated += event.migrated_flows;
  metrics_->scale_events.set(events_.size());
  metrics_->migrated_flows.set(migrated);
}

}  // namespace speedybox::control
