// Telemetry metric registry: lock-free per-shard counters, gauges and
// log-bucketed cycle histograms, aggregated on snapshot.
//
// Concurrency contract (DESIGN.md "Telemetry"): every cell has exactly ONE
// writer thread for its whole life — the same single-writer-per-shard
// discipline the sharded runtime applies to flow state. Writers mutate via
// relaxed load+store (no lock prefix: a relaxed non-contended RMW is just a
// register increment plus a plain store on x86), and snapshot readers load
// relaxed from any thread at any time. Because writer and reader never
// require each other's ordering, relaxed atomics make this exactly as cheap
// as plain fields while staying data-race-free (TSan-clean with the
// background snapshotter running mid-run).
//
// Different cells of one ShardMetrics may have different writers (the
// sharded dispatcher owns ring_occupancy/ring_burst_size/
// backpressure_yields/shed_ring while the shard worker owns everything
// else) — the contract is per cell, not per struct. A count another ledger
// keeps is not counted here: its owner set()s it at each batch boundary
// (DESIGN.md §7 lists the owners).
//
// Data-path cost when telemetry is off: the instrumented executors keep a
// `ShardMetrics*` that is null when no registry is attached, so every hook
// is one perfectly predicted branch; no telemetry object is ever allocated.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/span.hpp"
#include "util/histogram.hpp"

namespace speedybox::telemetry {

/// Single-writer relaxed cell: the building block of all metrics.
class RelaxedCell {
 public:
  /// Writer-thread only.
  void add(std::uint64_t delta = 1) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
  }
  void set(std::uint64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Any thread.
  std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

using Counter = RelaxedCell;  // monotonic
using Gauge = RelaxedCell;    // set to the latest value

/// Lock-free mirror of util::LogHistogram: same eighth-octave bucket
/// geometry, atomic single-writer buckets, materialized as a LogHistogram
/// on snapshot (so percentile math lives in exactly one place).
class CycleHistogram {
 public:
  CycleHistogram() : buckets_(util::LogHistogram::raw_bucket_count()) {}

  /// Writer-thread only.
  void record(std::uint64_t cycles) noexcept {
    const int index =
        util::LogHistogram::raw_bucket_index(static_cast<double>(cycles));
    buckets_[static_cast<std::size_t>(index)].add(1);
    sum_.add(cycles);
  }

  /// Any thread; consistent enough for monitoring (buckets are read one by
  /// one while the writer may still be adding — each bucket is exact, the
  /// total lags by at most the in-flight record()).
  util::LogHistogram snapshot() const;

 private:
  std::vector<RelaxedCell> buckets_;
  RelaxedCell sum_;
};

/// Per-NF attribution: slow-path (recording / original chain) work cycles.
struct NfMetrics {
  explicit NfMetrics(std::string nf_label) : label(std::move(nf_label)) {}
  std::string label;
  Counter packets;        // slow-path traversals of this NF
  CycleHistogram cycles;  // measured work cycles per traversal
};

/// One executor instance's metrics (a shard worker, a single-threaded
/// ChainRunner, the pipeline manager, or the sharded dispatcher).
struct ShardMetrics {
  ShardMetrics(std::string shard_label, std::vector<std::string> nf_labels,
               std::uint32_t span_sample_every_n,
               std::string tenant_label = {});

  const std::string label;
  /// Tenant this executor instance serves (DESIGN.md §14); empty in
  /// single-chain deployments. A first-class label dimension in both
  /// exporters, never folded into `label`.
  const std::string tenant;

  // -- counters --
  Counter packets;              // packets processed
  Counter drops;
  Counter mat_hits;             // classifier: subsequent-path packets
  Counter mat_misses;           // classifier: initial packets
  Counter events_triggered;
  Counter consolidations;
  Counter teardowns;            // FIN/RST flow teardowns
  Counter held_packets;         // pipeline: packets held during recording
  Counter backpressure_yields;  // dispatcher: yields on a full ring

  // -- overload & fault counters (DESIGN.md §9). `drops` above excludes
  // -- faulted packets; the shed counters never overlap `packets`. --
  Counter admitted;          // passed the ingress gate
  Counter shed_watermark;    // queue pressure shed (any policy)
  Counter shed_early_drop;   // MAT-doomed flow shed at ingress
  Counter shed_ring;         // dispatcher: burst shed at a pressured ring
  Counter faulted;           // lost to an injected NF failure
  Counter degraded_flows;    // flows given the degraded default rule
  Counter degraded_packets;  // packets that executed a default rule

  // -- autoscaling control plane (DESIGN.md §10). Written only by the
  // -- controller's own metric shard (the dispatcher thread is the single
  // -- writer); zero on every data shard. --
  Counter scale_events;    // resharding operations executed
  Counter migrated_flows;  // flows moved between shards, cumulative

  // -- live ingestion front-end (DESIGN.md §11). Written only by the
  // -- ingest thread's own metric shard ("<label>/ingest"); zero on every
  // -- data shard. --
  Counter rx_bytes;      // wire bytes read off the sockets
  Counter rx_frames;     // frames decoded into packet descriptors
  Counter rx_batches;    // batches staged to the executor sink
  Counter parse_errors;  // frames the wire parser rejected
  Counter socket_drops;  // datagrams lost to receive-queue overflow

  // -- flow-table engine (DESIGN.md §13). Cumulative incremental-resize
  // -- steps plus occupancy/probe/slab gauges, aggregated over the shard's
  // -- tables (classifier, Global MAT, per-NF state; the pipeline manager
  // -- reports the first two only). --
  Counter flow_table_resize_steps;

  // -- gauges --
  Gauge ring_occupancy;   // ingress ring depth at last push
  Gauge ring_capacity;
  Gauge active_flows;     // classifier flow-table size
  Gauge ring_burst_size;  // dispatcher: size of the last burst push
  Gauge queue_depth;      // overload gate: virtual/real queue depth
  Gauge active_shards;    // controller: shards currently receiving flows
  Gauge flow_table_entries;     // live entries across the shard's tables
  Gauge flow_table_capacity;    // allocated slots across the tables
  Gauge flow_table_slab_bytes;  // slab-arena bytes backing flow records
  Gauge flow_table_max_probe;   // worst probe sequence observed

  // -- cycle histograms --
  CycleHistogram fastpath_cycles;     // classify + event check + HA + SFs
  CycleHistogram slowpath_cycles;     // whole recording/original traversal
  CycleHistogram classify_cycles;     // slow path only (fast path folds the
                                      // classifier into fastpath_cycles)
  /// Per SpeedyBox batch (runner and sharded workers): the passes that
  /// only prefetch or prepare — parse, checksum and tuple hash of every
  /// packet, and the warm pass over fast-path records.
  CycleHistogram batch_prep_cycles;
  CycleHistogram consolidate_cycles;
  /// Per closed flow: the record's teardown hooks, its free and the
  /// classifier release (runner and sharded workers: apply_teardown;
  /// pipeline manager: finish_teardown).
  CycleHistogram teardown_cycles;
  /// Batch fill level per process_batch call (worker-owned): how full the
  /// bursts actually run — tails and trickle traffic show up as mass at
  /// small occupancies. Value histogram, same lock-free cell layout as the
  /// cycle histograms.
  CycleHistogram batch_occupancy;
  /// Time-in-degraded: length of each completed degradation episode, in
  /// packet arrivals (value histogram).
  CycleHistogram degraded_episode_packets;
  /// Controller: cycles spent inside each resharding operation (quiesce +
  /// state migration + worker lifecycle), one sample per scale event.
  CycleHistogram migration_cycles;
  /// Ingest front-end: cycles between a frame's socket read and its
  /// hand-off to the executor sink (batch staging wait included) — the
  /// I/O-path contribution to end-to-end latency.
  CycleHistogram ingest_cycles;

  /// Indexed by chain position. deque: NfMetrics holds atomics (immovable)
  /// and deque constructs in place without ever relocating elements.
  std::deque<NfMetrics> per_nf;

  /// Sampled packet spans (1-in-N by five-tuple hash).
  SpanRecorder spans;
};

/// Point-in-time view of one ShardMetrics (plain values, no atomics).
struct ShardSnapshot {
  std::string label;
  std::string tenant;  // empty when untenanted (and on aggregate())
  /// Stable, export-ordered (name, value) pairs.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, util::LogHistogram>> histograms;
  struct NfSnapshot {
    std::string label;
    std::uint64_t packets = 0;
    util::LogHistogram cycles;
  };
  std::vector<NfSnapshot> per_nf;
  std::vector<PacketSpan> spans;
  std::uint64_t spans_sampled = 0;
  std::uint64_t spans_dropped = 0;
};

struct MetricsSnapshot {
  /// Monotonic snapshot index (per Registry).
  std::uint64_t sequence = 0;
  std::vector<ShardSnapshot> shards;
  /// Cross-shard roll-up: counters/gauges summed (flow_table_max_probe,
  /// a worst case, takes the max), histograms merged, spans concatenated,
  /// per-NF merged by chain position.
  ShardSnapshot aggregate() const;
};

/// Owns every ShardMetrics instance; registration is control-plane
/// (mutex-protected), reads/writes of the cells are lock-free.
class Registry {
 public:
  /// N=0 disables span sampling; otherwise flows whose five-tuple hash
  /// satisfies hash % N == 0 are traced.
  explicit Registry(std::uint32_t span_sample_every_n = 0)
      : span_sample_every_n_(span_sample_every_n) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create (and own) metrics for one executor instance. The returned
  /// reference is stable for the Registry's lifetime. `nf_labels` sizes the
  /// per-NF attribution (empty for executors that don't attribute per NF).
  ShardMetrics& create_shard(std::string label,
                             std::vector<std::string> nf_labels = {});

  /// Scope every subsequent create_shard() to `tenant_id` (empty clears).
  /// Lets a tenant host stamp the tenant dimension onto shards registered
  /// deep inside Executor::attach_telemetry without widening that
  /// interface. Control-plane only, like create_shard.
  void set_tenant(std::string tenant_id);
  std::string tenant() const;

  std::uint32_t span_sample_every_n() const noexcept {
    return span_sample_every_n_;
  }

  /// Any thread, any time (including mid-run: the lock only excludes
  /// concurrent registration, never the data-path writers).
  MetricsSnapshot snapshot() const;

 private:
  const std::uint32_t span_sample_every_n_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ShardMetrics>> shards_;
  std::string tenant_;
  mutable std::uint64_t sequence_ = 0;
};

/// RAII tenant scoping: stamps `tenant_id` onto every shard registered
/// within the scope, restoring the previous scope on exit (scopes nest).
class TenantScope {
 public:
  TenantScope(Registry& registry, std::string tenant_id)
      : registry_(registry), previous_(registry.tenant()) {
    registry_.set_tenant(std::move(tenant_id));
  }
  ~TenantScope() { registry_.set_tenant(std::move(previous_)); }
  TenantScope(const TenantScope&) = delete;
  TenantScope& operator=(const TenantScope&) = delete;

 private:
  Registry& registry_;
  std::string previous_;
};

}  // namespace speedybox::telemetry
