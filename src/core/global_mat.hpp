// The Global MAT (§V): one record per flow (core/flow_record.hpp) — the
// flow's per-NF recordings and the rule consolidated from them — serving
// the fast data path for subsequent packets:
//
//   subsequent packet ──► the record's event conditions ──► consolidated
//                         header action ──► state-function handlers, chain
//                         order (Table-I parallel schedule for the model)
//
// A condition that holds fires its event, whose update rewrites the owning
// NF's entries; the record is recompiled in place before the packet is
// processed, so Maglev failover or DoS blacklisting take effect at once.
//
// Records live at their FID's slot of a chunked array whose addresses
// never move; FIDs are dense slot indices (core/classifier.hpp), so a
// classified packet reaches its record with one indexed load. One owner
// thread, except that a threaded deployment's NF cores record into a
// record, and run its handler arrays and teardown hooks, while the owner
// serves other flows: the ring hand-offs order every access, no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/flow_record.hpp"
#include "core/flow_table.hpp"
#include "core/header_action.hpp"
#include "core/state_function.hpp"
#include "util/prefetch.hpp"

namespace speedybox::core {

class GlobalMat {
 public:
  /// Start a flow: the empty record at `fid`'s slot, which the recording
  /// pass fills through SpeedyBoxContext. A record still open there is
  /// freed first (without running its hooks).
  FlowRecord& open_flow(std::uint32_t fid);

  /// The flow's record while the flow is open (recording or consolidated),
  /// or null.
  FlowRecord* record(std::uint32_t fid) noexcept {
    FlowRecord* slot = slot_if_allocated(fid);
    return slot != nullptr && slot->open ? slot : nullptr;
  }

  /// The flow's consolidated rule — its record once compiled — or null.
  const FlowRecord* find(std::uint32_t fid) const noexcept {
    const FlowRecord* slot = slot_if_allocated(fid);
    return slot != nullptr && slot->consolidated ? slot : nullptr;
  }

  /// Compile (or recompile) the flow's rule from its recordings. Called
  /// after the initial packet finishes the recording pass and by event
  /// triggers; opens an empty record if the flow has none.
  void consolidate_flow(std::uint32_t fid);

  /// True when the flow's consolidated rule is a settled drop: the header
  /// action drops and no registered event could change the verdict. The
  /// slo-early-drop overload policy sheds such packets at ingress —
  /// semantically equivalent to the fast path's early drop (which never
  /// runs state functions for dropped packets) minus the MAT walk. A FIN
  /// shed this way leaves the record for idle expiry, exactly like a UDP
  /// flow's last packet would.
  bool rule_marked_drop(std::uint32_t fid) const noexcept {
    const FlowRecord* rule = find(fid);
    return rule != nullptr && rule->action.drop && rule->conditions.empty();
  }

  /// Install a pre-consolidated pure-forward default rule (graceful
  /// degradation, DESIGN.md §9): a flow arriving while the path is
  /// degraded skips recording and executes this rule on the fast path.
  /// No header rewrites, no state functions, no event checks.
  void install_default_rule(std::uint32_t fid);

  /// The batch's classify-pass hint: warm the leading lines of `fid`'s
  /// record, which hold every field the default fast path reads
  /// (DESIGN.md §8). A hint only.
  void prefetch(std::uint32_t fid) const noexcept {
    const FlowRecord* slot = slot_if_allocated(fid);
    if (slot == nullptr) return;
    const auto* bytes = reinterpret_cast<const char*>(slot);
    for (std::size_t line = 0; line < kFlowRecordHotLines; ++line) {
      util::prefetch_read(bytes + line * util::kCacheLineSize);
    }
  }

  /// The batch's warm-pass hint, a pass after prefetch(): warm the lines
  /// the record's hot-address list names — its condition and handler
  /// arrays and the NF state they read. A hint only: nothing read here
  /// is kept, so a recompile before the packet runs changes no output.
  void prefetch_hot(std::uint32_t fid) const noexcept {
    const FlowRecord* slot = slot_if_allocated(fid);
    if (slot == nullptr) return;
    for (std::uint8_t i = 0; i < slot->hot_count; ++i) {
      util::prefetch_read(slot->hot_addresses[i]);
    }
  }

  struct FastPathResult {
    bool rule_hit = false;
    bool dropped = false;
    /// The rule executed was a degraded-mode default rule — the runner
    /// counts these packets separately (they skipped recording).
    bool degraded_rule = false;
    std::size_t events_triggered = 0;
    /// The cycle model's fields (`model` only; 0 otherwise). Measured
    /// cycles actually spent executing state functions.
    std::uint64_t sf_total_cycles = 0;
    /// Modeled cycles under the Table-I parallel schedule (critical path).
    std::uint64_t sf_critical_path_cycles = 0;
    /// The rule's multi_batch_groups.
    std::size_t multi_batch_groups = 0;
    /// Timer pairs consumed inside process() — the caller subtracts their
    /// overhead from its enclosing measurement.
    std::uint32_t timer_pairs = 0;
  };

  /// Fast path for a subsequent packet: the record's event conditions,
  /// consolidated header action, state-function handlers. `parsed_hint` is
  /// the classifier's parse of this packet — reused for state-function
  /// execution when the consolidated action leaves the header layout
  /// intact, so the fast path parses exactly once. With `model` (the
  /// platform cycle model, DESIGN.md §1) the state functions' cycles are
  /// measured: per batch while the rule samples its Table-I schedule,
  /// under one timer pair after. Without it no timer runs.
  FastPathResult process(net::Packet& packet,
                         const net::ParsedPacket* parsed_hint = nullptr,
                         bool model = false);

  /// The manager-side half of the fast path for threaded deployments:
  /// event conditions + consolidated header action only. The caller hands
  /// `handlers` to the owning NF cores with the packet.
  struct FastHeaderResult {
    bool rule_hit = false;
    bool dropped = false;
    bool degraded_rule = false;
    std::size_t events_triggered = 0;
    FlowRecord* record = nullptr;
    HandlerArrays handlers;
  };
  FastHeaderResult process_header(net::Packet& packet);

  /// Flow teardown: run the record's teardown hooks and free its slot.
  /// `run_hooks = false` skips the hooks — for threaded deployments where
  /// the hooks (which mutate NF-internal state) already ran on the owning
  /// NF cores and only the owner-side free remains.
  void erase_flow(std::uint32_t fid, bool run_hooks = true);

  /// Consolidated rules (open flows with a compiled record).
  std::size_t size() const noexcept { return compiled_; }
  /// Open records (recording or consolidated).
  std::size_t open_records() const noexcept { return open_; }
  std::uint64_t consolidations() const noexcept { return consolidations_; }
  /// Event-condition evaluations and fired events, across all flows. One
  /// writer (the thread running the fast path); any thread may read.
  std::uint64_t checks_performed() const noexcept {
    return checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t events_triggered() const noexcept {
    return triggers_.load(std::memory_order_relaxed);
  }
  /// Record-array footprint for the shard's flow_table_* metrics: the
  /// reserved chunk bytes and the open records (no hash slots to report).
  FlowTableStats record_stats() const noexcept;

 private:
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  FlowRecord* slot_if_allocated(std::uint32_t fid) const noexcept {
    const std::size_t chunk = fid >> kChunkBits;
    return chunk < chunks_.size() ? &chunks_[chunk][fid & kChunkMask]
                                  : nullptr;
  }
  FlowRecord& slot(std::uint32_t fid);
  /// Shared front half of the fast path: record lookup, the record's
  /// event conditions (firing any that hold and recompiling in place),
  /// consolidated header action. Null on a miss.
  FlowRecord* apply_header_phase(net::Packet& packet, bool* dropped,
                                 std::size_t* events_triggered);
  /// Evaluate every condition of the record; fire the events that hold.
  /// Returns how many fired.
  std::size_t check_events(std::uint32_t fid, FlowRecord& record);
  void compile(FlowRecord& record);
  static void bump(std::atomic<std::uint64_t>& cell,
                   std::uint64_t delta) noexcept {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<FlowRecord[]>> chunks_;
  std::size_t open_ = 0;
  std::size_t compiled_ = 0;
  std::uint64_t consolidations_ = 0;
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> triggers_{0};
  /// Per-batch cycle costs of the packet being sampled, reused across
  /// packets so the sampling window allocates nothing per packet.
  std::vector<std::uint64_t> batch_costs_;
};

}  // namespace speedybox::core
