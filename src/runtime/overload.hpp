// Overload control for the data path (DESIGN.md §9).
//
// Three cooperating mechanisms, all deterministic so equivalence and
// conservation proofs stay exact:
//
//   1. Admission control — a token bucket in virtual service-time units
//      shapes the offered load before any chain work is spent.
//   2. Bounded-queue backpressure — a discrete virtual ingress queue
//      models the arrival/service race at a configured offered-load
//      multiple of capacity; high/low watermarks with hysteresis decide
//      when to shed, and the DropPolicy decides WHO sheds:
//        * tail-drop       — shed every arrival while pressured.
//        * per-flow-fair   — shed a flow-consistent hash band sized to
//                            the excess, so surviving flows keep their
//                            full packet sequence (goodput, not just
//                            throughput).
//        * slo-early-drop  — consult the Global MAT: packets of flows
//                            whose consolidated rule already says "drop"
//                            are shed at ingress for near-zero cycles
//                            (the Table-3 early-drop consolidation turned
//                            into a load-shedding weapon); tail-drop
//                            handles the remaining excess.
//   3. Graceful degradation — sustained pressure suspends new-flow
//      recording: new flows get a pre-consolidated pure-forward default
//      rule (GlobalMat::install_default_rule) so the fast path keeps its
//      latency; recording resumes when the queue drains to the low
//      watermark.
//
// The threaded executors have real SPSC rings in front of their workers.
// SpeedyBoxPipeline passes its first ring's occupancy
// (SpscRing::over_watermark) to OverloadController::offer as external
// pressure, OR'd into the virtual gate's verdict; ShardedRuntime's
// dispatcher sheds a burst outright at a pressured ring, and each shard's
// runner runs its own virtual gate. ChainRunner and SpeedyBoxPipeline
// share one ingress routine, admit_arrival().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/field_count.hpp"

namespace speedybox::net {
class Packet;
}
namespace speedybox::telemetry {
struct ShardMetrics;
}

namespace speedybox::runtime {

class ServiceChain;

enum class DropPolicy : std::uint8_t {
  kTailDrop,
  kPerFlowFair,
  kSloEarlyDrop,
};

std::string_view drop_policy_name(DropPolicy policy) noexcept;
/// Parses "tail-drop" / "per-flow-fair" / "slo-early-drop"; nullopt on
/// anything else.
std::optional<DropPolicy> parse_drop_policy(std::string_view name) noexcept;

struct OverloadConfig {
  bool enabled = false;
  /// Offered load as a multiple of the data path's service capacity: the
  /// virtual arrival clock runs `offered_load` times faster than the
  /// service clock (2.0 = arrivals at twice the drain rate). Values <= 1
  /// still exercise the machinery but the queue stays near-empty. The
  /// threaded executors ignore this (their rings see real arrival rates).
  double offered_load = 2.0;
  DropPolicy policy = DropPolicy::kTailDrop;
  /// Virtual ingress queue bound, in packets. Also the denominator for the
  /// watermark fractions.
  std::size_t queue_capacity = 1024;
  /// Watermark fractions of queue_capacity; pressure engages at high and
  /// clears at low (hysteresis).
  double high_watermark = 0.875;
  double low_watermark = 0.5;
  /// Token-bucket admission shaping: sustained rate in service units
  /// (1.0 = exactly the drain rate) and burst depth in packets. A rate
  /// <= 0 disables the bucket — watermark shedding alone then bounds the
  /// queue.
  double admission_rate = 0.0;
  double admission_burst = 64.0;
  /// Suspend new-flow recording after this many consecutive pressured
  /// arrivals; 0 disables graceful degradation.
  std::uint32_t degrade_after = 64;
};

/// Shed/degrade counters, nested inside RunStats and merged shard-wise
/// alongside it. Conservation invariant (checked by the property tests and
/// bench_overload):
///
///   offered  == admitted + shed_admission + shed_watermark + shed_early_drop
///   admitted == delivered + drops + faulted        (RunStats.packets ==
///                                                   admitted by definition)
///
/// All counters stay zero when overload control is disabled, except
/// `faulted`, which the fault-injection harness feeds independently.
struct OverloadStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_admission = 0;   // token bucket empty
  std::uint64_t shed_watermark = 0;   // queue pressure (any policy)
  std::uint64_t shed_early_drop = 0;  // MAT-doomed flow shed at ingress
  /// Packets lost to injected NF faults — disjoint from `drops` so
  /// conservation can separate policy drops from failures.
  std::uint64_t faulted = 0;
  std::uint64_t degraded_flows = 0;    // flows given the default rule
  std::uint64_t degraded_packets = 0;  // packets that hit a default rule
  std::uint64_t degraded_episodes = 0;
  /// Total arrivals spent inside degraded episodes (time-in-degraded, in
  /// packet-arrival units; the telemetry histogram records per-episode
  /// lengths, this keeps the exact mergeable sum).
  std::uint64_t degraded_episode_packets = 0;

  std::uint64_t shed_total() const noexcept {
    return shed_admission + shed_watermark + shed_early_drop;
  }

  void merge_from(const OverloadStats& other) noexcept;
};

/// Guard: merge_from below is field-by-field; adding a field without
/// extending it would silently drop that counter from shard merging.
static_assert(util::field_count<OverloadStats>() == 10,
              "OverloadStats changed: update merge_from (overload.cpp) and "
              "this count");

/// Hysteresis over an observed queue depth — the virtual queue's watermark
/// state machine; SpscRing::over_watermark mirrors it for real rings.
class WatermarkGate {
 public:
  WatermarkGate(std::size_t high, std::size_t low) noexcept
      : high_(high), low_(low < high ? low : high) {}

  /// Feed the current depth; returns the updated pressure verdict.
  bool update(std::size_t depth) noexcept {
    pressured_ = pressured_ ? depth > low_ : depth >= high_;
    return pressured_;
  }
  bool pressured() const noexcept { return pressured_; }

 private:
  std::size_t high_;
  std::size_t low_;
  bool pressured_ = false;
};

/// Deterministic per-executor overload controller. Single-threaded: each
/// ChainRunner (and each shard's runner) and the pipeline manager own one;
/// the manager ORs its real ring pressure in.
class OverloadController {
 public:
  enum class Decision : std::uint8_t {
    kAdmit,
    kShedAdmission,
    kShedWatermark,
    kShedEarlyDrop,
  };

  explicit OverloadController(const OverloadConfig& config) noexcept;

  /// Offer one arrival. `flow_hash` keys the per-flow-fair shed band;
  /// `doomed` says the flow's consolidated rule is already a pure drop
  /// (only consulted under slo-early-drop). Executors with real ingress
  /// rings OR pressure in via `external_pressure` (SpscRing::
  /// over_watermark) — it joins the virtual gate's verdict for policy and
  /// degradation purposes.
  Decision offer(std::uint64_t flow_hash, bool doomed,
                 bool external_pressure = false) noexcept;

  bool degraded() const noexcept { return degraded_; }
  /// Virtual queue occupancy, in packets — also the expected queueing
  /// delay in units of one packet's service time.
  double queue_depth() const noexcept { return depth_; }
  bool pressured() const noexcept { return gate_.pressured(); }
  const OverloadConfig& config() const noexcept { return config_; }

  std::uint64_t degraded_episodes() const noexcept { return episodes_; }
  std::uint64_t degraded_episode_packets() const noexcept {
    return episode_packets_total_;
  }
  /// Length (in arrivals) of the episode that ended since the last call,
  /// if any — feed to the time-in-degraded telemetry histogram.
  std::optional<std::uint64_t> take_finished_episode() noexcept {
    const auto out = finished_episode_;
    finished_episode_.reset();
    return out;
  }

 private:
  /// Policy verdict for a pressured (or doomed) arrival: who sheds.
  Decision shed_verdict(bool pressured, std::uint64_t flow_hash,
                        bool doomed) noexcept;
  void update_degrade(bool pressured) noexcept;

  OverloadConfig config_;
  std::size_t high_;  // packets
  std::size_t low_;
  WatermarkGate gate_;
  double depth_ = 0.0;   // virtual queue occupancy, packets
  double tokens_;        // admission bucket fill
  double delta_;         // service completions per arrival (1/offered_load)
  /// Per-flow-fair: hash bands (of 1024) that shed while pressured, sized
  /// to the offered-load excess.
  std::uint64_t shed_band_slots_ = 0;
  std::uint32_t pressured_streak_ = 0;
  bool degraded_ = false;
  std::uint64_t episodes_ = 0;
  std::uint64_t episode_packets_ = 0;        // current episode
  std::uint64_t episode_packets_total_ = 0;  // all episodes
  std::optional<std::uint64_t> finished_episode_;
};

/// What an executor's ingress gate knows beyond the packet itself.
struct IngressSource {
  /// Chain whose classifier (a side-effect-free peek) and Global MAT say
  /// whether a flow is doomed — its consolidated rule a settled drop — for
  /// slo-early-drop. Null where there is no Global MAT (original mode, in
  /// every executor): that policy then degenerates to tail-drop.
  ServiceChain* chain = nullptr;
  /// The executor's real ingress ring is over its watermark.
  bool ring_pressure = false;
  /// Depth reported to the queue_depth gauge; nullopt reports the
  /// controller's virtual queue.
  std::optional<std::size_t> ring_depth;
};

/// The ingress gate of every executor (DESIGN.md §9), run before any chain
/// work: offers `packet` to `controller`, mirrors the controller's episode
/// counts into `stats` (assignment — always current), counts the verdict
/// in `stats` and, when attached, `metrics`, sets the queue-depth gauge and
/// drains the finished-episode latch. Returns true to admit; the caller
/// discards a shed packet.
bool admit_arrival(OverloadController& controller, const net::Packet& packet,
                   const IngressSource& source, OverloadStats& stats,
                   telemetry::ShardMetrics* metrics);

}  // namespace speedybox::runtime
