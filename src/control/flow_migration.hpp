// Consistent flow-state migration between shard replicas (DESIGN.md §10).
//
// Live resharding moves a flow — classifier entry, per-NF internal state,
// and its Global MAT record (per-NF recordings and consolidated rule) —
// from one quiesced ServiceChain replica to another, such that the flow's
// next packet takes the identical fast path it would have taken had it
// never moved. The per-NF state crosses via the serialization API on
// nf::NetworkFunction (export_flow_state / import_flow_state), keyed by
// the tuple each NF observed, which the export evolves through the header
// actions the source record holds per NF. The recordings are re-recorded
// by the import into the destination's record (the recorded closures
// capture source-instance pointers, so they can never be copied), and the
// destination then re-consolidates, reproducing the source's rule byte for
// byte.
//
// The engine is strictly three-phase per migration batch, once the
// destination has a free FID for every flow (else nothing moves):
//
//   1. export  — copy every migrating flow's per-NF payloads out of the
//                source (Monitor moves its counters: a counted byte must
//                live in exactly one shard);
//   2. import  — adopt each flow at the destination (a FID as classify
//                assigns one, preserved last-seen stamp), replay the per-NF
//                imports with a recording context, then consolidate and
//                transplant the learned batch-cost profile;
//   3. erase   — tear the flows out of the source (teardown hooks run, so
//                NF-internal maps shed the migrated keys).
//
// The phase barrier matters: MazuNAT's two directions share the port
// mapping, and erasing the outbound flow (whose teardown hook releases the
// mapping) before the inbound sibling exports would corrupt the sibling's
// state. Both directions always migrate together (symmetric-hash shard
// affinity), and phase 1 finishes before phase 3 starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/classifier.hpp"
#include "runtime/chain.hpp"
#include "runtime/sharded_runtime.hpp"

namespace speedybox::control {

/// Throws std::logic_error naming the first NF that does not implement the
/// flow-state serialization API — autoscaling setups fail loudly before
/// the first packet, never mid-migration.
void require_migratable(const runtime::ServiceChain& chain);

/// Move every flow in `flows` from `source` to `dest`. Both chains must be
/// quiesced (no worker touching them). Returns the number of flows moved:
/// all of them, or 0 when `dest` has too few free FIDs (the flows and
/// their state then stay at `source`, untouched).
std::size_t migrate_flows(
    runtime::ServiceChain& source, runtime::ServiceChain& dest,
    std::span<const core::PacketClassifier::ActiveFlow> flows);

/// One resharding operation, as reported to telemetry and the benches.
struct ReshardReport {
  std::size_t from_shards = 0;
  std::size_t to_shards = 0;
  std::size_t migrated_flows = 0;
  std::uint64_t migration_cycles = 0;
};

/// Live-reshard a running ShardedRuntime to `new_count` active shards:
/// quiesce, start/restart destination workers, migrate every flow whose
/// Lemire shard index changes under the new count, retire surplus workers,
/// and re-open dispatch. Dispatcher thread only, at a packet boundary
/// (ShardedRuntime::ScaleHook is exactly that). A no-op (beyond the
/// report) when new_count already matches. When some destination has too
/// few free FIDs for the flows it would receive, nothing moves, no worker
/// starts or retires, the shard count stays, and the report reads
/// to_shards == from_shards.
ReshardReport reshard(runtime::ShardedRuntime& runtime,
                      std::size_t new_count);

}  // namespace speedybox::control
