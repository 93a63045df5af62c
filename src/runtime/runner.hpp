// ChainRunner: executes packets through a ServiceChain under one of four
// configurations — {BESS, ONVM} × {original, SpeedyBox}. By default it
// keeps counters only; RunConfig::cycle_model adds per-packet cycle
// accounting under the platform model below, and attached telemetry times
// the work layers (classify, fast path, slow path, per NF, consolidate,
// teardown) without it.
//
// Measurement model (DESIGN.md §1/§5), with cycle_model on:
//   * work cycles   — really-executed CPU cycles (parsing, table lookups,
//                     inspections, consolidations). This is what the
//                     "CPU cycle per packet" figures report.
//   * latency       — work cycles plus the platform's modeled hand-off
//                     costs (BESS module hop / ONVM descriptor ring hop)
//                     plus the packet's share of the per-burst rx fixed
//                     cost (rx_burst_fixed_cycles / burst occupancy — the
//                     vector-I/O amortization, DESIGN.md §8), with
//                     state-function parallelism accounted as the Table-I
//                     critical path plus a fork/join cost.
//   * rate (Mpps)   — BESS runs to completion on one logical pipeline:
//                     rate = f / mean-latency-cycles. ONVM is pipelined
//                     across cores: rate = f / bottleneck-stage cycles.
//
// Original mode runs the chain exactly like an unmodified platform: no
// classifier, no MATs, NFs see every packet (ctx = nullptr).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/classifier.hpp"
#include "core/flow_table.hpp"
#include "core/global_mat.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "platform/costs.hpp"
#include "runtime/chain.hpp"
#include "runtime/executor.hpp"
#include "runtime/overload.hpp"
#include "telemetry/metrics.hpp"
#include "util/histogram.hpp"

namespace speedybox::runtime {

struct RunConfig {
  platform::PlatformKind platform = platform::PlatformKind::kBess;
  bool speedybox = true;
  /// Burst size the run loops drain in (DESIGN.md §8). 1 degenerates to
  /// packet-at-a-time; results are bit-identical at every size (the
  /// differential harness proves it) — only the amortization changes.
  std::size_t batch_size = net::kDefaultBatchSize;
  /// Overload control (DESIGN.md §9), read by every executor shape when it
  /// is constructed — the only way to install the gate. Disabled: the gate
  /// does not exist and the data path is byte-identical to a config
  /// without it.
  OverloadConfig overload{};
  /// The platform cycle model (DESIGN.md §1): per-packet timers, the
  /// Table-I cost-sampling window, the modeled hop, ingress and fork/join
  /// costs, and RunStats' histograms and per-NF/stage sums. Off (the
  /// default), the data path runs no per-packet timer and keeps counters
  /// only; bytes, drop verdicts and counters are identical either way.
  /// The figure benches and chainsim's trace report turn it on.
  bool cycle_model = false;
};

struct PacketOutcome {
  /// The flow's first packet: the classifier's verdict on the SpeedyBox
  /// path; on the original path (no classifier) the cycle model's tagging,
  /// false with the model off.
  bool initial = false;
  bool dropped = false;
  bool fast_path = false;  // subsequent packet on the SpeedyBox path
  /// The four cycle fields are 0 unless a timer ran. work_cycles is
  /// measured with the cycle model on or telemetry attached; the modeled
  /// ones below only with the cycle model.
  std::uint64_t work_cycles = 0;     // really-executed CPU cycles
  /// work + per-NF platform framework overhead (no parallelism discount) —
  /// the "CPU cycle per packet" a platform-level measurement reports, which
  /// is what the paper's Fig. 4/6 and Table III count.
  std::uint64_t platform_cycles = 0;
  std::uint64_t latency_cycles = 0;  // platform cycles w/ parallel overlap
  /// Fast path only: latency with state functions accounted sequentially.
  std::uint64_t latency_cycles_sequential = 0;
  std::size_t events_triggered = 0;
  /// Overload/fault disposition (DESIGN.md §9). `shed`: refused at the
  /// ingress gate (also dropped; never entered the chain, not counted in
  /// RunStats.packets). `faulted`: lost to an injected NF failure (also
  /// dropped; counted in overload.faulted, not in drops). `degraded`:
  /// executed a degraded-mode default rule.
  bool shed = false;
  bool faulted = false;
  bool degraded = false;
};

/// Aggregated statistics of a run. No member grows with packet count: the
/// per-packet distributions are fixed-size LogHistograms of cycles (readers
/// convert with CycleClock::to_us), merged across shards by adding buckets.
/// The work-cycle distributions live in telemetry (fastpath_cycles /
/// slowpath_cycles), not here. The histograms and the per-NF and stage sums
/// are the cycle model's (RunConfig::cycle_model): empty with it off, when
/// rate_mpps() reads 0. The counters are always kept.
struct RunStats {
  /// Modeled per-packet latency in cycles, recorded once per packet by
  /// class; under the overload gate it includes the modeled queueing delay.
  util::LogHistogram latency_cycles_initial;
  util::LogHistogram latency_cycles_subsequent;
  /// Same fast-path packets, with state functions accounted sequentially
  /// (parallelism off) — lets the Fig. 7 ablation split HA vs SF
  /// contributions from one run, free of cross-run noise.
  util::LogHistogram latency_cycles_subsequent_sequential;
  /// Platform CPU cycles per packet (Fig. 4/6, Table III).
  util::LogHistogram platform_cycles_initial;
  util::LogHistogram platform_cycles_subsequent;

  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t events_triggered = 0;

  /// Per-NF cycle sums/counts, original path only (empty on the SpeedyBox
  /// path): work cycles plus the platform hop, per packet an NF saw. Sums
  /// rather than means, so per-shard stats merge exactly.
  std::vector<std::uint64_t> per_nf_cycle_sum;
  std::vector<std::uint64_t> per_nf_cycle_count;

  /// Pipeline-stage cycle sums/counts for the rate model (subsequent
  /// packets only; see header comment).
  std::vector<double> stage_cycle_sum;
  std::vector<std::uint64_t> stage_cycle_count;

  /// Shed/degraded/faulted counters (DESIGN.md §9). `packets` above counts
  /// ADMITTED packets only; conservation is
  ///   overload.offered == packets + overload.shed_total()   (gate on)
  ///   packets == delivered + drops + overload.faulted       (always)
  OverloadStats overload;

  /// Steady-state processing rate in Mpps under the platform model.
  double rate_mpps(platform::PlatformKind platform) const;

  /// Per-NF mean cycles (Table III), derived from the sums above; 0 for an
  /// NF no packet reached.
  std::vector<double> per_nf_mean_cycles() const;

  /// Latency of every packet: the exact merge of the initial and
  /// subsequent distributions.
  util::LogHistogram latency_cycles_all() const;

  /// Absorb another run's statistics (sharded runtime result merging):
  /// histogram buckets, counters and per-NF/stage sums add.
  void merge_from(const RunStats& other);
};

/// Copies the counts their owners keep — `stats`, the classifier's
/// subsequent/initial counts and live flows, `tables` — into `metrics`, on
/// the thread that owns them, at a batch boundary (DESIGN.md §7).
void publish_counts(telemetry::ShardMetrics& metrics, const RunStats& stats,
                    const core::PacketClassifier& classifier,
                    const core::FlowTableStats& tables) noexcept;

class ChainRunner : public Executor {
 public:
  ChainRunner(ServiceChain& chain, RunConfig config,
              const platform::PlatformCosts& costs =
                  platform::PlatformCosts::calibrated());

  /// Process one packet: process_batch() on a one-slot batch, which pays
  /// the whole per-burst rx cost. A packet already marked dropped enters
  /// masked and is neither processed nor accounted.
  PacketOutcome process_packet(net::Packet& packet);

  /// Process a whole burst through the configured data path (DESIGN.md §8)
  /// — the runner's only packet path. `outcomes` is resized to
  /// batch.size() and slot-aligned with the batch. Semantics are
  /// bit-identical to calling process_packet() (a batch of one) per slot in
  /// order: drops mask their slot (never compact); the original path runs
  /// one NF-major loop over the burst; on the SpeedyBox path the batched
  /// classifier pass flushes at a teardown → same-tuple reuse boundary so a
  /// flow torn down mid-batch re-records exactly as it would
  /// packet-at-a-time.
  void process_batch(net::PacketBatch& batch,
                     std::vector<PacketOutcome>& outcomes);

  /// Run a raw packet sequence (e.g. from trace::read_pcap): Executor::run.
  const RunStats& run_packets(const std::vector<net::Packet>& packets,
                              std::vector<net::Packet>* outputs = nullptr) {
    return run(packets, outputs);
  }

  // -- Executor ------------------------------------------------------------
  std::string_view kind() const noexcept override { return "runner"; }
  /// Processes the burst inline, in batches of RunConfig::batch_size,
  /// stamping each batch's arrival once as it forms.
  void submit(std::span<net::Packet> burst, bool keep) override;
  /// Hands back the kept packets. Not one-shot: stats accumulate over
  /// every submit() until the runner is destroyed.
  const RunStats& drain(std::vector<net::Packet>* outputs) override;
  std::size_t batch_size() const noexcept override {
    return config_.batch_size;
  }
  void attach_telemetry(telemetry::Registry* registry,
                        const std::string& label) override;

  /// Tear down every flow idle for longer than `max_idle_us` — rule + FID +
  /// NF per-flow state (via teardown hooks). The garbage collection
  /// complementing FIN/RST for UDP and abandoned connections. Returns how
  /// many flows were expired. SpeedyBox mode only (the original path keeps
  /// no rules).
  std::size_t expire_idle_flows(double max_idle_us);

  const RunStats& stats() const noexcept override { return stats_; }
  RunStats& stats() noexcept { return stats_; }

  /// True while the SpeedyBox path records no new flows (graceful
  /// degradation under sustained pressure).
  bool recording_suspended() const noexcept {
    return controller_ != nullptr && controller_->degraded();
  }

  /// Attach live telemetry (null detaches — the default). The runner's
  /// thread is the single writer for every cell except the dispatcher-owned
  /// ring gauges (see telemetry/metrics.hpp). `metrics->per_nf` entries map
  /// to chain positions; when it is shorter than the chain the tail NFs
  /// simply go unattributed. Hooks only ever record cycle values the runner
  /// already measured, outside the measured regions, so attaching telemetry
  /// does not change the reported numbers; when detached every hook is one
  /// null-pointer test.
  void set_telemetry(telemetry::ShardMetrics* metrics) noexcept {
    metrics_ = metrics;
  }

 private:
  void process_original_batch(net::PacketBatch& batch,
                              std::vector<PacketOutcome>& outcomes);
  void process_speedybox_batch(net::PacketBatch& batch,
                               std::vector<PacketOutcome>& outcomes);
  /// Recording pass + consolidation for an already-classified initial
  /// packet. `classify_cycles` is this packet's (share of the) classifier
  /// cost; `t_start` anchors span timestamps; `ingress_cycles` is the
  /// packet's share of the per-burst rx fixed cost (modeled — added to
  /// latency/platform cycles, never to work cycles).
  void run_recording_path(
      net::Packet& packet,
      const core::PacketClassifier::Classification& classification,
      std::uint64_t classify_cycles, std::uint64_t t_start,
      std::uint64_t ingress_cycles, PacketOutcome& outcome);
  /// Global-MAT fast path for an already-classified subsequent packet (or
  /// a degraded initial one), under one timer pair of its own.
  /// `classify_cycles` is the packet's share of the batched classifier
  /// pass, added to the measured region; `ingress_cycles` as in
  /// run_recording_path.
  void run_fast_path(
      net::Packet& packet,
      const core::PacketClassifier::Classification& classification,
      std::uint64_t classify_cycles, std::uint64_t ingress_cycles,
      PacketOutcome& outcome);
  void apply_teardown(
      const core::PacketClassifier::Classification& classification);
  /// The cycle model's share of a timed fast-path packet: platform and
  /// modeled latency cycles, and the rate model's stage samples.
  void account_fast_path_model(const core::GlobalMat::FastPathResult& result,
                               std::uint64_t serial,
                               std::uint64_t ingress_cycles,
                               PacketOutcome& outcome);
  void account(const PacketOutcome& outcome);
  void add_stage_sample(std::size_t stage, std::uint64_t cycles);
  /// The platform's modeled per-NF hand-off cost.
  std::uint64_t hop_cycles() const noexcept {
    return config_.platform == platform::PlatformKind::kOnvm
               ? costs_.onvm_ring_hop_cycles
               : costs_.bess_hop_cycles;
  }

  ServiceChain& chain_;
  RunConfig config_;
  platform::PlatformCosts costs_;
  telemetry::ShardMetrics* metrics_ = nullptr;
  std::unique_ptr<OverloadController> controller_;
  /// EMA of per-packet service latency (cycles) — scales the virtual queue
  /// depth into the modeled queueing delay added to latency samples while
  /// the gate is active. Cycle model only; never touches packet bytes.
  double service_ema_cycles_ = 0.0;
  RunStats stats_;
  /// process_speedybox_batch's per-slot scratch, reused across batches:
  /// the pre-pass's parse and hashed tuple, then the classification.
  struct SlotScratch {
    std::optional<net::ParsedPacket> parsed;
    core::HashedTuple flow;
    std::optional<core::PacketClassifier::Classification> classification;
  };
  std::vector<SlotScratch> slots_;
  /// The tuples torn down earlier in the current segment.
  std::vector<net::FiveTuple> torn_;
  /// submit()'s batch and outcome scratch, and the packets kept for drain().
  net::PacketBatch batch_;
  std::vector<PacketOutcome> outcomes_;
  std::vector<net::Packet> kept_;
  /// Original mode with the cycle model only: the model's init/sub
  /// tagging (there is no classifier on the original path), used as a
  /// set — the value is unused. Maintained outside measured regions.
  core::FlowTable<net::FiveTuple, bool> seen_tuples_;
};

}  // namespace speedybox::runtime
