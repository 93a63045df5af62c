// Flow-sharded multi-core SpeedyBox runtime.
//
// The ONVM-style deployment (§VI-A) pins the NF Manager to one core, which
// caps the consolidated fast path at a single manager's throughput. The
// standard NFV answer is RSS-style flow sharding: replicate the whole
// pipeline once per core and steer each flow to one replica by hashing its
// five-tuple. Because every piece of SpeedyBox per-flow state — classifier
// FIDs, flow records (recordings, events, consolidated rules), and the
// NFs' own flow tables — belongs to one five-tuple, the chain replicates
// with no cross-shard state at all.
//
//   dispatcher (caller thread)
//     parse + symmetric five-tuple hash ──► shard = hash mod N
//     per-shard staging buffer, flushed to the shard's SPSC ring as a whole
//     burst (try_push_burst; yield on full: backpressure, never drop —
//     unless RunConfig::overload is on, when a pressured ring sheds)
//   shard worker k (one thread per shard)
//     owns replica k of the ServiceChain (chain.clone()) and a ChainRunner
//     pops whole bursts (try_pop_burst), runs them through
//     ChainRunner::process_batch in FIFO order; keeps a packet and its
//     outcome only when the caller asked for it back, else frees it there
//   finish() / drain()
//     joins workers, places the kept packets and outcomes in input order,
//     merges per-shard RunStats (exact sum/count merging, see
//     RunStats::merge_from)
//
// What is kept follows from what the caller asked for: push() and
// finish() keep every packet, and submit() keeps a burst only with `keep`.
// A live run (io::IngestServer::serve submits without keep) therefore
// holds nothing per packet, however long it serves.
//
// Concurrency contract (DESIGN.md "Sharded runtime"): the symmetric hash
// gives both directions of a connection the same shard, so every flow's
// state has exactly one writer — shard k's thread — for its whole life.
// No locks, no atomics beyond the SPSC rings and the shutdown flags.
// Per-flow FIFO order is preserved end-to-end (dispatch order within a
// shard is input order); the global output order across flows is not.
//
// Elastic resharding (DESIGN.md §10): the shard count is no longer fixed
// for the runtime's life. A control plane (src/control/) may, between two
// packets, quiesce the data path with epoch drain markers, migrate flow
// state between shard replicas, and change the number of active shards.
// The dispatcher routes with `active_shard_count()` while `shards_` keeps
// every replica ever started — retired replicas stay allocated (their
// aggregate NF state and RunStats still merge at finish()) and can be
// restarted by a later scale-up.
//
// On a single-core host the shards time-slice (results stay identical,
// overlap is zero); on a multi-core host they run truly in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "net/packet.hpp"
#include "runtime/chain.hpp"
#include "runtime/executor.hpp"
#include "runtime/runner.hpp"
#include "telemetry/metrics.hpp"
#include "util/spsc_ring.hpp"

namespace speedybox::runtime {

/// Merged result of one sharded run: the merged RunStats, plus the kept
/// packets and their outcomes.
struct ShardedRunResult {
  /// Exact merge of the per-shard stats (histogram buckets and sums added).
  RunStats stats;
  /// Packets dispatched to each shard.
  std::vector<std::uint64_t> shard_packets;
  /// Per kept packet (every push(); submit() bursts with keep), in input
  /// order.
  std::vector<PacketOutcome> outcomes;
  /// The kept packets post-chain, in input order (dropped ones keep their
  /// dropped flag set). Empty after drain(), which hands them to the
  /// caller.
  std::vector<net::Packet> packets;
  /// Wall-clock of the run (dispatch through join). Unlike the modeled
  /// cycle stats this includes real thread overlap, so it is what the
  /// sharding-scaling bench reports.
  double wall_seconds = 0.0;
  /// Sum of the per-shard modeled steady-state rates: the aggregate
  /// capacity of the sharded deployment.
  double aggregate_rate_mpps = 0.0;
};

class ShardedRuntime : public Executor {
 public:
  /// Invoked by the dispatcher (from inside push()) every
  /// `interval_packets` packets — the control plane's deterministic entry
  /// point for autoscaling decisions. The hook runs on the dispatcher
  /// thread at a packet boundary, so it may quiesce and reshard.
  using ScaleHook = std::function<void(ShardedRuntime&)>;

  /// Clones `prototype` once per shard (the prototype itself is never
  /// touched again) and starts one worker thread per shard. Throws
  /// std::logic_error naming the NF if any NF in the prototype does not
  /// support clone().
  ///
  /// With `config.overload` on, every shard's ChainRunner gates its own
  /// arrivals (flow state is shard-affine, so slo-early-drop consults the
  /// shard's own MAT) and the real rings' watermarks are armed, so the
  /// dispatcher sheds instead of spin-blocking when a worker falls behind.
  ///
  /// When `registry` is non-null (it must outlive the runtime) one
  /// ShardMetrics per shard is created there (`shard_label_prefix` +
  /// "shard0", "shard1", …, with per-NF slots from the prototype's NF
  /// names) and attached to the shard's ChainRunner. Cell ownership: the
  /// shard worker writes the processing metrics, the dispatcher (the
  /// push() caller) writes that shard's ring_occupancy /
  /// backpressure_yields / ring_burst_size / shed_ring cells.
  ShardedRuntime(const ServiceChain& prototype, std::size_t shard_count,
                 RunConfig config = {}, std::size_t ring_capacity = 1024,
                 telemetry::Registry* registry = nullptr,
                 std::string shard_label_prefix = {});
  /// Joins the workers, draining anything still in flight (results of a
  /// never-finish()ed run are discarded, but every pushed packet is still
  /// processed — NF state and counters stay consistent).
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Dispatch one packet to its flow's shard, kept for finish(). Packets
  /// stage per shard and flush to the ring as a whole burst once
  /// `config.batch_size` have accumulated (finish()/the destructor flush
  /// partial bursts). A flush blocks (spin-yield) while the ring lacks
  /// room — backpressure, never packet loss — unless the overload gate is
  /// on (see the constructor).
  void push(net::Packet packet) { dispatch(std::move(packet), true); }

  /// Drain everything in flight, join the workers, and merge the per-shard
  /// results. One-shot: the runtime cannot be pushed to afterwards.
  ShardedRunResult finish();

  /// Convenience one-shot run: push every packet (copied, metadata reset)
  /// in order, then finish().
  ShardedRunResult run_packets(const std::vector<net::Packet>& packets);

  // -- Executor interface (one-shot: drain() ends in finish()) --
  std::string_view kind() const noexcept override { return "sharded"; }
  /// Dispatches every packet of the burst, as push() does.
  void submit(std::span<net::Packet> burst, bool keep) override;
  /// finish(), then the kept packets move to `outputs`; the rest of the
  /// result stays readable through last_result().
  const RunStats& drain(std::vector<net::Packet>* outputs) override;
  std::size_t batch_size() const noexcept override {
    return config_.batch_size;
  }
  const RunStats& stats() const noexcept override {
    return last_result_.stats;
  }
  /// Replaces the constructor's registry wiring: one metric shard per
  /// flow shard, labelled "<label>/shard<i>". Safe while the workers spin
  /// because they never touch runner state before the first ring pop, and
  /// the ring push/pop pair orders these writes before it. Shards started
  /// later by a scale-up inherit the same registry and label scheme.
  void attach_telemetry(telemetry::Registry* registry,
                        const std::string& label) override;
  /// Merged result of the last drain(): stats, per-shard counts and the
  /// kept packets' outcomes — what the equivalence harnesses compare.
  const ShardedRunResult& last_result() const noexcept {
    return last_result_;
  }

  /// Total replicas ever started (retired ones included — their chains
  /// still hold aggregate NF state and their stats merge at finish()).
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Replicas currently receiving new packets; shard_of() routes over
  /// exactly this prefix of `shards_`.
  std::size_t active_shard_count() const noexcept { return active_count_; }
  std::size_t shard_of(const net::FiveTuple& tuple) const noexcept;
  /// Shard k's chain replica, for state inspection and migration. Only
  /// safe to touch after finish() or while the data path is quiesced.
  ServiceChain& shard_chain(std::size_t shard);
  /// How many burst flushes found the target ring short of room and had
  /// to wait for the worker.
  std::uint64_t backpressure_waits() const noexcept {
    return backpressure_waits_;
  }
  /// Packets dispatched so far (kept or not).
  std::uint64_t pushed() const noexcept { return pushed_; }
  /// Worst ring fill fraction across the active shards, as the dispatcher
  /// sees it — a queue-pressure signal for the autoscaling controller.
  double max_ring_occupancy() const noexcept;

  /// Install (or clear, with a null hook) the autoscaling hook. Dispatcher
  /// thread only; may be called mid-run at a packet boundary.
  void set_scale_hook(ScaleHook hook, std::uint64_t interval_packets);

  // -- Control-plane primitives (src/control/ resharding; DESIGN.md §10).
  // -- All dispatcher-thread only. Callers sequence them as
  // -- quiesce → ensure/migrate/retire → set_active_shard_count.

  /// Epoch-based quiescence: flush every staged burst, push a drain marker
  /// through every running shard's ring (markers are never shed), and spin
  /// until every worker acknowledges the epoch. On return all previously
  /// pushed packets are fully processed, every worker is idle-polling an
  /// empty ring, and the workers' chain/state writes are visible to the
  /// caller (release/acquire on the epoch).
  void quiesce();
  /// Grow the replica set to `count` workers: restarts retired shards and
  /// clones brand-new replicas from the pristine prototype as needed. New
  /// replicas inherit the telemetry registry and overload policy. Existing
  /// running shards are untouched.
  void ensure_worker_shards(std::size_t count);
  /// Stop and join every worker with index >= `count`. Call only while
  /// quiesced, after migrating the victims' flows away — a retired shard's
  /// chain keeps its aggregate NF state but must hold no active flows.
  void retire_worker_shards(std::size_t count);
  /// Change the dispatch routing width. Shards [0, count) must be running.
  void set_active_shard_count(std::size_t count);

 private:
  /// Job::slot of a packet nobody asked to keep.
  static constexpr std::uint64_t kNotKept = ~std::uint64_t{0};
  struct Job {
    net::Packet packet;
    /// Position among the kept packets (input order), or kNotKept.
    std::uint64_t slot = kNotKept;
    /// Non-zero marks a quiescence drain marker, not a packet: the worker
    /// publishes this epoch once everything ahead of it is processed.
    std::uint64_t drain_epoch = 0;
  };
  /// A kept packet and its outcome; placed at its slot by finish().
  struct Processed {
    std::uint64_t slot;
    PacketOutcome outcome;
    net::Packet packet;
  };
  struct Shard {
    std::unique_ptr<ServiceChain> chain;
    std::unique_ptr<ChainRunner> runner;
    std::unique_ptr<util::SpscRing<Job>> ring;
    /// Owned by the registry; null when telemetry is off.
    telemetry::ShardMetrics* metrics = nullptr;
    std::thread thread;
    /// Dispatcher-side: worker thread currently started and not joined.
    bool running = false;
    /// Worker → dispatcher: highest drain-marker epoch fully processed.
    std::atomic<std::uint64_t> drained_epoch{0};
    /// Dispatcher → worker: retire this shard (exit once the ring drains).
    std::atomic<bool> stop{false};
    /// Dispatcher-owned burst staging: jobs collect here and hit the ring
    /// via one try_push_burst per batch_size packets instead of one
    /// try_push each.
    std::vector<Job> staging;
    // Worker-local until the thread is joined; read only afterwards (or
    // while quiesced, ordered by the drain-marker epoch handshake).
    std::vector<Processed> processed;
  };

  /// Stage one packet for its flow's shard (push() and submit()).
  void dispatch(net::Packet&& packet, bool keep);
  void worker(Shard& shard);
  void start_worker(Shard& shard);
  /// Push shard's staged jobs into its ring (partial bursts yield-retry
  /// the remainder; with overload enabled a pressured or full ring sheds
  /// them instead). Dispatcher thread only.
  void flush_shard(Shard& shard);
  /// Record `jobs` as shed at `shard`'s ring: counted in its shed_ring
  /// cell now and once in the merged offered/shed_watermark at finish();
  /// kept ones are marked dropped, with outcomes flagged shed.
  void shed_jobs(Shard& shard, std::span<Job> jobs);
  void join_workers();

  RunConfig config_;
  /// Pristine replica of the construction-time prototype (never processes
  /// a packet): scale-ups clone brand-new shards from it long after the
  /// caller's prototype may be gone.
  std::unique_ptr<ServiceChain> prototype_;
  std::size_t ring_capacity_ = 1024;
  telemetry::Registry* registry_ = nullptr;
  /// Label prefix for shards registered later ("<prefix>shard" — the shard
  /// index is appended).
  std::string label_prefix_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t active_count_ = 0;
  std::uint64_t quiesce_epoch_ = 0;
  ScaleHook scale_hook_;
  std::uint64_t scale_interval_ = 0;
  std::atomic<bool> done_{false};
  bool joined_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t kept_count_ = 0;
  std::uint64_t backpressure_waits_ = 0;
  std::uint64_t start_ns_ = 0;
  /// Shed at the dispatcher, so never seen by any shard runner: counted
  /// into the overload counters at finish(), and the kept ones placed.
  std::uint64_t dispatcher_shed_ = 0;
  std::vector<Processed> dispatcher_shed_kept_;
  ShardedRunResult last_result_;
};

}  // namespace speedybox::runtime
