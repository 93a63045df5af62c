// Threaded ONVM-style deployment (§VI-A), with or without SpeedyBox: the NF
// Manager runs on the caller's core; each stage (one NF, or a fused segment
// of NFs) runs on its own thread; all hand-offs go through shared-memory
// SPSC descriptor rings. RunConfig::speedybox picks the data path, the same
// branch ChainRunner takes; threads, rings, stop protocol, sink, counters,
// overload gate and telemetry are shared by both modes.
//
// Original mode (the unmodified ONVM chain): the manager only gates
// arrivals, then dispatches a plain descriptor that every NF core runs
// through its NFs with no context — no classifier, no MATs.
//
// SpeedyBox mode — data-path routing, matching the paper's architecture:
//
//   initial packet      manager ──ring──► NF1(record) ─► … ─► NFn(record)
//                               ◄──────────── completion ring ────────┘
//                       manager consolidates, flow becomes READY
//   subsequent packet   manager: event check + consolidated header action
//                       (early drop here), then the descriptor — carrying
//                       the record's handler arrays — visits the NF cores
//                       that own state-function batches; the others pass it
//                       through.
//   packets arriving while the flow is still recording are held at the
//   manager and released, in order, once consolidation completes — so a
//   flow's per-NF state is never touched by two cores at once. Packets
//   arriving after the flow's FIN/RST are held until its teardown
//   completes, then start a new flow, as they would in arrival order.
//
// Concurrency contract (see DESIGN.md): a descriptor carries its flow's
// record, which NF cores record into with no lock — the ring hand-offs
// order it all. Each NF's internal state is only ever touched by its own
// thread (recording, its state functions, and its teardown hooks, which
// run as the teardown-flagged descriptor passes the NF's stage); the
// classifier and the Global MAT belong to the manager. Handler arrays an
// event replaces while a descriptor still runs them are retired until the
// flow's teardown. The one exception to NF-state single ownership: state
// an NF shares with its registered event lambdas (the manager's event
// check runs them) must be internally locked by that NF — see
// MaglevLb::mutex_ / DosPrevention::mutex_.
//
// Per-flow FIFO order is preserved end-to-end; the global output order is
// the manager's dispatch order (arrival order in original mode). A
// completed packet goes to the sink only when its burst was submitted
// with `keep`; otherwise the manager frees it on the spot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/flow_table.hpp"
#include "runtime/chain.hpp"
#include "runtime/executor.hpp"
#include "runtime/runner.hpp"
#include "telemetry/metrics.hpp"
#include "util/spsc_ring.hpp"

namespace speedybox::runtime {

class SpeedyBoxPipeline : public Executor {
 public:
  /// The chain (NFs, MATs, classifier) is borrowed and must outlive the
  /// pipeline; its NFs' internal state must only be inspected after
  /// drain().
  ///
  /// `config` picks the mode (speedybox), the burst size every stage drains
  /// its ring in (batch_size) and the overload policy; the platform field
  /// is unused (the pipeline carries no cycle model). The manager is the
  /// producer of the first descriptor ring, so with the gate on that ring's
  /// real pressure (SpscRing::over_watermark) feeds the controller as
  /// external pressure alongside its virtual-queue model; policy and
  /// graceful degradation are shared with the single-threaded gate.
  ///
  /// `segment_sizes` partitions the chain into consolidated stages: each
  /// entry is the number of consecutive NFs fused onto one worker core
  /// (plan::DeploymentPlan::segment_sizes()). Fused NFs run sequentially
  /// in chain order on their core, so outputs are byte-identical at every
  /// partition — only the ring-hop count changes. Empty = one NF per
  /// stage, the historical shape. Throws std::invalid_argument when the
  /// sizes do not cover a non-empty chain exactly.
  SpeedyBoxPipeline(ServiceChain& chain, RunConfig config,
                    std::size_t ring_capacity = 1024,
                    std::vector<std::size_t> segment_sizes = {});
  ~SpeedyBoxPipeline();

  SpeedyBoxPipeline(const SpeedyBoxPipeline&) = delete;
  SpeedyBoxPipeline& operator=(const SpeedyBoxPipeline&) = delete;

  // -- Executor interface (one-shot: drain() joins the NF threads) --
  //
  // The pipeline carries no cycle model (that lives in ChainRunner), so
  // its RunStats hold the counters only: packets, drops, fired events and
  // the overload block — written by the manager as packets are admitted,
  // fast-pathed and complete, exact once drain() returns. Output order is completion order; dropped
  // packets are omitted.
  std::string_view kind() const noexcept override { return "pipeline"; }
  /// Runs the manager logic on the caller's thread for every packet of the
  /// burst, collecting completions as it goes.
  void submit(std::span<net::Packet> burst, bool keep) override;
  const RunStats& drain(std::vector<net::Packet>* outputs) override;
  std::size_t batch_size() const noexcept override {
    return config_.batch_size;
  }
  const RunStats& stats() const noexcept override { return stats_; }
  /// Manager-side telemetry: every hooked cell is written by the manager
  /// thread only — submit(), completions and teardown all run there — so the
  /// single-writer contract holds with no locking; counts are published at
  /// the end of each submit() and in drain(). The NF worker threads
  /// are not instrumented (they carry no timers; the cycle accounting for
  /// this deployment lives in ChainRunner's model).
  void attach_telemetry(telemetry::Registry* registry,
                        const std::string& label) override;

 private:
  struct Descriptor {
    /// Null for pure teardown markers (hooks-only traversal).
    net::Packet* packet = nullptr;
    /// The packet goes to the sink at completion (submit()'s `keep`).
    bool keep = false;
    std::uint32_t fid = net::kInvalidFid;
    bool recording = false;
    bool teardown = false;
    /// The flow's record: recording NF cores append to it, and teardown
    /// runs its hooks. Null only for a flow without one.
    core::FlowRecord* record = nullptr;
    /// Fast-path packets: the handler arrays they execute.
    core::HandlerArrays handlers;
  };

  /// A packet the manager holds while its flow records or closes.
  struct Held {
    net::Packet* packet;
    bool keep;
    bool teardown;
  };
  /// While `recording`, a flow's later packets are classified and held
  /// until its consolidation completes. Once `closing` (its FIN/RST was
  /// admitted), later packets on its tuple belong to the tuple's next flow:
  /// they are held unclassified until the teardown completes. Most flows
  /// hold nothing, and an empty vector allocates nothing.
  struct FlowState {
    bool recording = false;
    bool closing = false;
    std::vector<Held> held;
  };

  void worker(std::size_t stage);
  /// Manager side of one arriving packet: the overload gate, then a plain
  /// descriptor (original mode) or route().
  void admit(net::Packet&& packet, bool keep);
  /// SpeedyBox mode, manager side: classify an admitted packet and send it
  /// down the recording or fast path, or hold it. A packet held behind its
  /// flow's FIN/RST is classified only when it is routed again.
  void route(net::Packet* packet, bool keep);
  /// SpeedyBox mode: run one descriptor through the NFs [begin, end) of a
  /// stage — recording, its rule's state-function batches, teardown hooks.
  void run_speedybox_stage(Descriptor& descriptor, std::size_t begin,
                           std::size_t end);
  void dispatch(Descriptor descriptor);
  void drain_completions(bool block_until_idle);
  void handle_completion(Descriptor& descriptor);
  /// Fast-path a packet of a READY flow on the manager, then dispatch or
  /// finish it.
  void fast_path(net::Packet* packet, bool keep, std::uint32_t fid,
                 bool teardown);
  /// Manager-side free of a torn-down flow (record, classifier FID, flow
  /// state), then the routing of any packets held behind its FIN/RST. The
  /// NF-side teardown hooks are NOT run here: they mutate NF-internal state
  /// and therefore run on the owning NF cores as the teardown-flagged
  /// descriptor traverses the rings.
  void finish_teardown(std::uint32_t fid);
  /// Route a packet-less teardown marker through the NF cores, for flows
  /// whose last packet never traverses the rings (early drop, pure
  /// header-action rules). Its completion then calls finish_teardown.
  void dispatch_teardown_marker(std::uint32_t fid);
  /// A policy or NF drop (not a fault): counted, then freed.
  void count_drop(net::Packet* packet);
  /// A delivered packet: to the sink when kept, freed otherwise.
  void deliver(net::Packet* packet, bool keep);
  /// Complete everything in flight and join the NF threads (idempotent).
  void stop();
  void publish();

  ServiceChain& chain_;
  RunConfig config_;
  /// Per-stage [begin, end) NF ranges (one worker thread + ring each).
  std::vector<std::pair<std::size_t, std::size_t>> stages_;
  telemetry::ShardMetrics* metrics_ = nullptr;
  std::unique_ptr<OverloadController> controller_;
  std::vector<std::unique_ptr<util::SpscRing<Descriptor>>> rings_;
  util::SpscRing<Descriptor> completions_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<std::atomic<bool>>> stop_flags_;

  core::FlowTable<std::uint32_t, FlowState> flows_;
  /// Delivered packets of kept bursts, in completion order.
  std::vector<net::Packet> sink_;
  std::size_t in_flight_ = 0;
  bool stopped_ = false;
  /// Counter-only Executor stats (packets admitted, drops, events,
  /// overload block).
  RunStats stats_;
};

}  // namespace speedybox::runtime
