#include "runtime/overload.hpp"

#include <algorithm>
#include <cmath>

#include "net/packet.hpp"
#include "runtime/chain.hpp"
#include "telemetry/metrics.hpp"

namespace speedybox::runtime {

std::string_view drop_policy_name(DropPolicy policy) noexcept {
  switch (policy) {
    case DropPolicy::kTailDrop:
      return "tail-drop";
    case DropPolicy::kPerFlowFair:
      return "per-flow-fair";
    case DropPolicy::kSloEarlyDrop:
      return "slo-early-drop";
  }
  return "tail-drop";
}

std::optional<DropPolicy> parse_drop_policy(std::string_view name) noexcept {
  if (name == "tail-drop") return DropPolicy::kTailDrop;
  if (name == "per-flow-fair") return DropPolicy::kPerFlowFair;
  if (name == "slo-early-drop") return DropPolicy::kSloEarlyDrop;
  return std::nullopt;
}

void OverloadStats::merge_from(const OverloadStats& other) noexcept {
  offered += other.offered;
  admitted += other.admitted;
  shed_admission += other.shed_admission;
  shed_watermark += other.shed_watermark;
  shed_early_drop += other.shed_early_drop;
  faulted += other.faulted;
  degraded_flows += other.degraded_flows;
  degraded_packets += other.degraded_packets;
  degraded_episodes += other.degraded_episodes;
  degraded_episode_packets += other.degraded_episode_packets;
}

namespace {

/// Per-flow-fair shed band resolution: flows map to 1024 hash bands, the
/// first `band_slots` of which shed while pressured.
constexpr std::uint64_t kBandCount = 1024;

std::uint64_t band_of(std::uint64_t flow_hash) noexcept {
  // Fibonacci scramble so adjacent flow hashes land in unrelated bands.
  return (flow_hash * 0x9E3779B97F4A7C15ull) >> 54;  // top 10 bits
}

}  // namespace

OverloadController::OverloadController(const OverloadConfig& config) noexcept
    : config_(config),
      high_(std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 config.high_watermark *
                 static_cast<double>(config.queue_capacity)))),
      low_(std::min(static_cast<std::size_t>(
                        config.low_watermark *
                        static_cast<double>(config.queue_capacity)),
                    high_)),
      gate_(high_, low_),
      tokens_(config.admission_burst),
      delta_(config.offered_load > 0.0 ? 1.0 / config.offered_load : 1.0) {
  // Shed just the excess: at offered load L, a fraction 1 - 1/L of the
  // arrivals outpace the drain. Floor of 1/8 keeps the band meaningful
  // when pressure comes from bursts rather than sustained excess.
  const double excess = std::clamp(1.0 - delta_, 0.125, 1.0);
  shed_band_slots_ = static_cast<std::uint64_t>(
      std::ceil(excess * static_cast<double>(kBandCount)));
}

OverloadController::Decision OverloadController::offer(
    std::uint64_t flow_hash, bool doomed,
    bool external_pressure) noexcept {
  // One inter-arrival gap elapses: the server completes delta_ packets and
  // the admission bucket refills accordingly.
  depth_ = std::max(0.0, depth_ - delta_);
  if (config_.admission_rate > 0.0) {
    tokens_ = std::min(config_.admission_burst,
                       tokens_ + delta_ * config_.admission_rate);
  }
  const bool pressured =
      gate_.update(static_cast<std::size_t>(depth_)) || external_pressure;
  update_degrade(pressured);

  Decision decision = Decision::kAdmit;
  if (config_.policy == DropPolicy::kSloEarlyDrop && doomed) {
    // Doomed flows shed unconditionally: their packets die at the Global
    // MAT anyway, so shedding at ingress is free goodput for the rest.
    decision = Decision::kShedEarlyDrop;
  } else if (config_.admission_rate > 0.0 && tokens_ < 1.0) {
    decision = Decision::kShedAdmission;
  } else if (pressured) {
    decision = shed_verdict(true, flow_hash, doomed);
  }

  if (decision == Decision::kAdmit) {
    if (depth_ + 1.0 > static_cast<double>(config_.queue_capacity)) {
      // Per-flow-fair survivors can still outpace the drain; the hard
      // queue bound tail-drops whatever the policy admitted past it.
      decision = Decision::kShedWatermark;
    } else {
      depth_ += 1.0;
      if (config_.admission_rate > 0.0) tokens_ -= 1.0;
    }
  }
  return decision;
}

OverloadController::Decision OverloadController::shed_verdict(
    bool pressured, std::uint64_t flow_hash, bool doomed) noexcept {
  if (config_.policy == DropPolicy::kSloEarlyDrop && doomed) {
    return Decision::kShedEarlyDrop;
  }
  if (!pressured) return Decision::kAdmit;
  if (config_.policy == DropPolicy::kPerFlowFair) {
    return band_of(flow_hash) < shed_band_slots_ ? Decision::kShedWatermark
                                                 : Decision::kAdmit;
  }
  return Decision::kShedWatermark;
}

void OverloadController::update_degrade(bool pressured) noexcept {
  if (pressured) {
    if (pressured_streak_ < UINT32_MAX) ++pressured_streak_;
  } else {
    pressured_streak_ = 0;
  }
  if (!degraded_ && config_.degrade_after > 0 &&
      pressured_streak_ >= config_.degrade_after) {
    degraded_ = true;
    ++episodes_;
    episode_packets_ = 0;
  }
  if (degraded_) {
    ++episode_packets_;
    ++episode_packets_total_;
    if (!pressured) {
      degraded_ = false;
      finished_episode_ = episode_packets_;
    }
  }
}

bool admit_arrival(OverloadController& controller, const net::Packet& packet,
                   const IngressSource& source, OverloadStats& stats,
                   telemetry::ShardMetrics* metrics) {
  ++stats.offered;
  // Flow hash for the per-flow-fair band and, under slo-early-drop, the
  // doomed-flow lookup. All unmeasured: shedding here is the near-zero-cycle
  // path.
  std::uint64_t flow_hash = 0;
  bool doomed = false;
  if (const auto parsed = net::parse_packet(packet)) {
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);
    flow_hash = tuple.hash();
    if (source.chain != nullptr &&
        controller.config().policy == DropPolicy::kSloEarlyDrop) {
      if (const auto fid = source.chain->classifier().peek(tuple)) {
        doomed = source.chain->global_mat().rule_marked_drop(*fid);
      }
    }
  }

  const auto decision =
      controller.offer(flow_hash, doomed, source.ring_pressure);
  stats.degraded_episodes = controller.degraded_episodes();
  stats.degraded_episode_packets = controller.degraded_episode_packets();
  const auto episode = controller.take_finished_episode();
  if (metrics != nullptr) {
    metrics->queue_depth.set(source.ring_depth.value_or(
        static_cast<std::size_t>(controller.queue_depth())));
    if (episode) metrics->degraded_episode_packets.record(*episode);
  }

  switch (decision) {
    case OverloadController::Decision::kAdmit:
      ++stats.admitted;
      if (metrics != nullptr) metrics->admitted.add(1);
      return true;
    case OverloadController::Decision::kShedAdmission:
      ++stats.shed_admission;
      if (metrics != nullptr) metrics->shed_admission.add(1);
      break;
    case OverloadController::Decision::kShedWatermark:
      ++stats.shed_watermark;
      if (metrics != nullptr) metrics->shed_watermark.add(1);
      break;
    case OverloadController::Decision::kShedEarlyDrop:
      ++stats.shed_early_drop;
      if (metrics != nullptr) metrics->shed_early_drop.add(1);
      break;
  }
  return false;
}

}  // namespace speedybox::runtime
