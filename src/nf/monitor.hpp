// Monitor (§VI-C): the network monitor used throughout the NFV literature.
// Maintains per-flow packet/byte counters and forwards every packet
// unchanged; optionally (MonitorConfig) it also maintains the heavier
// statistics real traffic monitors keep per packet — a count-min sketch of
// flow sizes (heavy-hitter detection) and per-destination-port traffic
// classes — which makes its per-packet state function comparable in cost to
// payload inspection, as in the paper's evaluation chains.
//
// Integration records a forward header action and one IGNORE-class state
// function maintaining the counters; the §VII-C real-chain test compares
// every counter value between the baseline and SpeedyBox runs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "nf/flow_state.hpp"
#include "nf/network_function.hpp"

namespace speedybox::nf {

struct FlowCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const FlowCounters&, const FlowCounters&) = default;
};

struct MonitorConfig {
  /// Most sketch rows: a flow's resolved cells fit a fixed block.
  static constexpr std::uint32_t kMaxSketchDepth = 8;

  /// Count-min sketch for heavy-hitter detection: `sketch_depth` rows of
  /// `sketch_width` counters, updated per packet. 0 depth disables it; at
  /// most kMaxSketchDepth rows.
  std::uint32_t sketch_depth = 0;
  std::uint32_t sketch_width = 16384;
  /// Maintain per-destination-port byte counters.
  bool per_port_stats = false;
  /// Maintain a byte-value histogram of payloads (entropy estimation for
  /// anomaly/DDoS detection). Makes the monitor's state function READ-class
  /// — still parallelizable with upstream readers per Table I.
  bool payload_histogram = false;

  /// The configuration used by the paper-style evaluation chains: an
  /// 8-row sketch over 256K-counter rows (heavy-hitter detection at scale —
  /// the rows exceed cache, so updates pay real memory latency) plus port
  /// stats, giving the monitor a per-packet state-function cost comparable
  /// to payload inspection, as in the paper's Snort+Monitor evaluation.
  static MonitorConfig heavy() {
    MonitorConfig config;
    config.sketch_depth = 8;
    config.sketch_width = 1u << 18;
    config.per_port_stats = true;
    config.payload_histogram = true;
    return config;
  }
};

class Monitor : public NetworkFunction {
 public:
  explicit Monitor(std::string name = "monitor") : Monitor({}, std::move(name)) {}
  Monitor(MonitorConfig config, std::string name);

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override;
  /// Batched override: a stateless pre-pass parses every packet, hashes its
  /// five-tuple once, and prefetches the sketch rows the accounting pass
  /// will increment (heavy() rows exceed cache). Recording slots fall back
  /// to the scalar path. Byte- and state-identical to per-packet process().
  void process_batch(net::PacketBatch& batch,
                     std::span<core::SpeedyBoxContext* const> ctxs) override;
  std::unique_ptr<NetworkFunction> clone() const override {
    return std::make_unique<Monitor>(config_, name());
  }

  // Migration payload: the flow's packet/byte counters. Export MOVES the
  // entry out of counters_ (unlike every other NF) so the cross-shard union
  // of counter maps remains a partition of what a global instance would
  // hold — the §VII-C-3 audit comparison. Aggregates (totals, sketch, port
  // stats, payload histogram) are shard-local and not migrated.
  bool supports_flow_migration() const override { return true; }
  std::optional<std::vector<std::uint8_t>> export_flow_state(
      const net::FiveTuple& tuple) override;
  void import_flow_state(const net::FiveTuple& tuple,
                         std::span<const std::uint8_t> bytes,
                         core::SpeedyBoxContext* ctx) override;

  // Counters survive flow teardown: they are the audit state (§VII-C-3).
  // The container itself is private (ISSUE 9 API redesign) — callers get a
  // per-flow lookup and an iteration view, never the table type.

  /// Number of flows with audit counters.
  std::size_t flow_count() const noexcept { return counters_.size(); }
  /// The flow's counters, or nullptr when the monitor has none for it.
  const FlowCounters* counters_of(const net::FiveTuple& tuple) const {
    return counters_.find(tuple);
  }
  /// Visit every (tuple, counters) pair, in no particular order.
  template <class F>
  void for_each_flow(F&& fn) const {
    counters_.for_each(
        [&fn](const net::FiveTuple& tuple, const FlowCounters& counters) {
          fn(tuple, counters);
        });
  }

  core::FlowTableStats flow_state_stats() const override {
    return counters_.stats();
  }

  std::uint64_t total_packets() const noexcept { return total_packets_; }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  /// Count-min sketch estimate of a flow's byte volume (0 when disabled).
  std::uint64_t estimate_flow_bytes(const net::FiveTuple& tuple) const;
  /// Bytes seen toward a destination port (0 when per-port stats disabled).
  std::uint64_t port_bytes(std::uint16_t dst_port) const;
  /// Payload byte-value histogram (empty when disabled) — audit state.
  const std::vector<std::uint64_t>& payload_histogram() const noexcept {
    return byte_histogram_;
  }

 private:
  /// Count the packet; returns the flow's counters cell.
  FlowCounters& account(const core::HashedTuple& flow,
                        const net::Packet& packet,
                        const net::ParsedPacket& parsed);
  /// The per-packet counter update every path shares.
  void count(FlowCounters& counters, std::uint64_t size) noexcept {
    ++counters.packets;
    counters.bytes += size;
    ++total_packets_;
    total_bytes_ += size;
  }
  /// Record the flow's forward action + counting state function, bound to
  /// its counters cell, through the context — shared by the initial-packet
  /// path and flow-state import.
  void record(const core::HashedTuple& flow, FlowCounters& counters,
              core::SpeedyBoxContext& ctx);

  /// A recorded flow's resolved statistics cells (heavy configurations):
  /// its sketch counter in each row and its destination port's counter.
  /// More than a recorded handler's captures hold, so the handler points
  /// at this block; the flow's teardown hook frees it.
  struct StatCells {
    std::array<std::uint64_t*, MonitorConfig::kMaxSketchDepth> sketch{};
    std::uint64_t* port = nullptr;
  };

  MonitorConfig config_;
  FlowStateTable<FlowCounters> counters_;
  std::uint64_t total_packets_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::vector<std::vector<std::uint64_t>> sketch_;  // depth x width
  std::vector<std::uint64_t> port_bytes_;  // 65536 entries when enabled
  std::vector<std::uint64_t> byte_histogram_;  // 256 entries when enabled
  FlowStateTable<StatCells> stat_cells_;
  // The recorded name, built once: flow records keep views of it.
  const std::string count_name_ = name() + ".count";
};

}  // namespace speedybox::nf
