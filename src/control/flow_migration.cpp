#include "control/flow_migration.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/global_mat.hpp"
#include "core/header_action.hpp"
#include "net/fields.hpp"
#include "net/five_tuple.hpp"
#include "util/cycle_clock.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace speedybox::control {

namespace {

/// Per-NF exported payload, keyed by the tuple the NF actually observed
/// (upstream modifies applied).
struct ExportedNf {
  std::size_t nf_index = 0;
  net::FiveTuple observed;
  std::vector<std::uint8_t> payload;
};

struct ExportedFlow {
  net::FiveTuple tuple;  // pre-chain tuple (classifier key)
  std::uint32_t source_fid = net::kInvalidFid;
  std::uint64_t last_seen_cycles = 0;
  std::vector<ExportedNf> states;
  // Consolidated-rule handoff (values copied: the source rule dies with
  // the phase-3 erase).
  bool had_rule = false;
  bool degraded_default = false;
  std::uint32_t cost_samples = 0;
  double critical_fraction = 1.0;
};

/// Evolve `tuple` through the header actions one NF recorded, so the next
/// NF's export is keyed by the tuple it observed. Non-modify actions leave
/// the tuple untouched; a recorded drop does not stop the walk (downstream
/// NFs may hold state from packets that flowed before the drop was
/// installed — e.g. a DoS blacklist flipping the rule mid-flow — and NFs
/// that truly never saw the flow export nothing).
void evolve_tuple(std::span<const core::HeaderAction> actions,
                  net::FiveTuple& tuple) {
  for (const core::HeaderAction& action : actions) {
    if (action.type != core::HeaderActionType::kModify) continue;
    switch (action.field) {
      case net::HeaderField::kSrcIp:
        tuple.src_ip = net::Ipv4Addr{action.value};
        break;
      case net::HeaderField::kDstIp:
        tuple.dst_ip = net::Ipv4Addr{action.value};
        break;
      case net::HeaderField::kSrcPort:
        tuple.src_port = static_cast<std::uint16_t>(action.value);
        break;
      case net::HeaderField::kDstPort:
        tuple.dst_port = static_cast<std::uint16_t>(action.value);
        break;
      default:
        break;  // TTL/TOS rewrites don't change the flow identity
    }
  }
}

ExportedFlow export_flow(runtime::ServiceChain& source,
                         const core::PacketClassifier::ActiveFlow& flow) {
  ExportedFlow exported;
  exported.tuple = flow.tuple;
  exported.source_fid = flow.fid;
  exported.last_seen_cycles = flow.last_seen_cycles;

  net::FiveTuple observed = flow.tuple;
  const core::FlowRecord* record = source.global_mat().record(flow.fid);
  for (std::size_t i = 0; i < source.size(); ++i) {
    auto payload = source.nf(i).export_flow_state(observed);
    if (payload) {
      exported.states.push_back({i, observed, std::move(*payload)});
    }
    if (record != nullptr) {
      evolve_tuple(record->header_actions_of(static_cast<std::uint32_t>(i)),
                   observed);
    }
  }

  if (const core::FlowRecord* rule = source.global_mat().find(flow.fid)) {
    exported.had_rule = true;
    exported.degraded_default = rule->degraded_default;
    exported.cost_samples = rule->cost_samples;
    exported.critical_fraction = rule->critical_fraction;
  }
  return exported;
}

void import_flow(runtime::ServiceChain& dest, const ExportedFlow& flow) {
  // migrate_flows checked that the destination has a FID for every flow.
  const std::uint32_t fid =
      dest.classifier().adopt_flow(flow.tuple, flow.last_seen_cycles).value();
  core::FlowRecord& record = dest.global_mat().open_flow(fid);
  for (const ExportedNf& state : flow.states) {
    // The context records straight into the destination's record — the
    // import is a replay of what the NF recorded for this flow's initial
    // packet, minus already-fired one-shot events.
    core::SpeedyBoxContext ctx{record, state.nf_index, fid};
    dest.nf(state.nf_index)
        .import_flow_state(state.observed, state.payload, &ctx);
  }
  if (flow.had_rule && flow.degraded_default) {
    // The flow was admitted under graceful degradation and never recorded:
    // hand it the same pre-consolidated default rule, not a real one.
    dest.global_mat().install_default_rule(fid);
    return;
  }
  dest.global_mat().consolidate_flow(fid);
  if (flow.had_rule) {
    // Transplant the learned batch-cost profile, so the destination's fast
    // path does not re-enter the per-batch sampling window mid-flow.
    record.cost_samples = flow.cost_samples;
    record.critical_fraction = flow.critical_fraction;
  }
}

}  // namespace

void require_migratable(const runtime::ServiceChain& chain) {
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (!chain.nf(i).supports_flow_migration()) {
      throw std::logic_error("NetworkFunction '" +
                             std::string(chain.nf(i).name()) +
                             "' does not support flow migration");
    }
  }
}

std::size_t migrate_flows(
    runtime::ServiceChain& source, runtime::ServiceChain& dest,
    std::span<const core::PacketClassifier::ActiveFlow> flows) {
  // A destination without a free FID for every flow takes none of them:
  // nothing is exported, so a failed import cannot lose state.
  if (dest.classifier().free_fid_count() < flows.size()) {
    SB_LOG_ERROR("migration",
                 "too few free FIDs at the destination: flows stay put");
    return 0;
  }
  // Phase 1: copy everything out of the source. No source mutation beyond
  // Monitor's move-on-export, so sibling flows (NAT's two directions)
  // still see consistent shared state whatever the iteration order.
  std::vector<ExportedFlow> exported;
  exported.reserve(flows.size());
  for (const auto& flow : flows) {
    exported.push_back(export_flow(source, flow));
  }
  // Phase 2: adopt + replay at the destination.
  for (const ExportedFlow& flow : exported) {
    import_flow(dest, flow);
  }
  // Phase 3: tear the flows out of the source. run_hooks=true so each
  // NF's teardown hook sheds its internal entry for the migrated key —
  // the cross-shard union of NF state stays a partition.
  for (const ExportedFlow& flow : exported) {
    source.global_mat().erase_flow(flow.source_fid, /*run_hooks=*/true);
    source.classifier().release_flow(flow.source_fid);
  }
  return exported.size();
}

ReshardReport reshard(runtime::ShardedRuntime& runtime,
                      std::size_t new_count) {
  ReshardReport report;
  report.from_shards = runtime.active_shard_count();
  report.to_shards = new_count == 0 ? 1 : new_count;
  if (report.to_shards == report.from_shards) return report;

  const std::uint64_t start = util::CycleClock::now();
  runtime.quiesce();
  // Every shard ever started may hold flows whose Lemire index changes
  // under the new count — any pair of shards can exchange flows, not just
  // the tail (shard_index is multiply-shift, not modulo). Build every
  // (source, destination) group before moving any.
  struct Group {
    std::size_t source;
    std::size_t dest;
    std::vector<core::PacketClassifier::ActiveFlow> flows;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> incoming(report.to_shards, 0);
  for (std::size_t s = 0; s < runtime.shard_count(); ++s) {
    // Bucket by destination shard: shard indices are small and dense, so a
    // flat vector indexed by shard beats an ordered map of buckets.
    std::vector<std::vector<core::PacketClassifier::ActiveFlow>> moves(
        report.to_shards);
    for (const auto& flow :
         runtime.shard_chain(s).classifier().active_tuples()) {
      const std::size_t target = util::shard_index(
          flow.tuple.symmetric_hash(), report.to_shards);
      if (target != s) moves[target].push_back(flow);
    }
    for (std::size_t target = 0; target < moves.size(); ++target) {
      if (moves[target].empty()) continue;
      incoming[target] += moves[target].size();
      groups.push_back({s, target, std::move(moves[target])});
    }
  }
  // A destination that cannot take every flow routed to it refuses the
  // whole reshard: were one group left behind, dispatch under the new
  // count would send its later packets to a shard that holds none of its
  // state. Shards not started yet are empty replicas with every FID free.
  for (std::size_t target = 0; target < incoming.size(); ++target) {
    const std::size_t free =
        target < runtime.shard_count()
            ? runtime.shard_chain(target).classifier().free_fid_count()
            : std::size_t{net::kFidMask} + 1;
    if (free < incoming[target]) {
      SB_LOG_ERROR("migration",
                   "too few free FIDs at a destination: reshard refused");
      report.to_shards = report.from_shards;
      return report;
    }
  }
  // Scale-up: destination workers must exist (and be registered with
  // telemetry/overload) before their chains receive state.
  if (report.to_shards > report.from_shards) {
    runtime.ensure_worker_shards(report.to_shards);
  }
  for (const Group& group : groups) {
    report.migrated_flows +=
        migrate_flows(runtime.shard_chain(group.source),
                      runtime.shard_chain(group.dest), group.flows);
  }
  if (report.to_shards < report.from_shards) {
    runtime.retire_worker_shards(report.to_shards);
  }
  runtime.set_active_shard_count(report.to_shards);
  report.migration_cycles = util::CycleClock::now() - start;
  return report;
}

}  // namespace speedybox::control
