// TenantHost (DESIGN.md §14): hosts several independent tenant chains
// concurrently on one shared shard pool, with an SLO enforcement loop
// arbitrating between them.
//
// Two drive modes, mirroring chainsim's:
//
//   run()    in-process — each tenant's trace::WorkloadSpec materializes,
//            the host interleaves the tenants' packet sequences
//            proportionally (deterministic: pick the tenant with the
//            lowest sent/total ratio, ties to the lowest index) and drives
//            every executor from ONE host thread. That thread is the
//            dispatcher of every sharded tenant, so enforcement actions —
//            including shard reallocation through control::reshard — land
//            at packet boundaries and the whole run is deterministic.
//
//   serve()  live — one io::IngestServer per tenant (the tenant's listener
//            port classifies wire traffic), each on its own ingest thread
//            and submitting to the tenant's executor through the host
//            gate, plus an enforcement thread polling telemetry.
//            Budget/policy updates publish through atomics; shard deltas
//            queue per tenant and the tenant's own ingest thread applies
//            them at a packet boundary (it is that runtime's dispatcher).
//
// The admission gate sits at the host boundary, before the tenant's own
// executor (and before its overload gate, when it has one):
//
//   offered == gate_shed + forwarded                    (host gate)
//   forwarded == executor offered                       (hand-off)
//   admitted == delivered + drops + faulted             (executor)
//
// — the per-tenant halves of the conservation identity the property suite
// checks under the adversarial-tenant scenario.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/ingest_server.hpp"
#include "runtime/plan.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "tenancy/slo_policy.hpp"
#include "tenancy/tenant_spec.hpp"

namespace speedybox::tenancy {

/// Deterministic per-tenant admission gate at the host boundary. Single
/// writer per instance (the tenant's drive thread); the arbiter publishes
/// budget/policy through relaxed atomics.
class TenantGate {
 public:
  /// Arbiter side: publish a new window's budget/policy. `last_offered`
  /// sizes the per-flow-fair surviving band (budget / offered, in 1024ths).
  void configure(std::uint64_t budget, runtime::DropPolicy policy,
                 std::uint64_t last_offered) noexcept;

  /// Drive side: offer one packet; true admits. `flow_hash` must be the
  /// flow's symmetric hash so per-flow-fair sheds whole flows (both
  /// directions land in the same band).
  bool offer(std::uint64_t flow_hash) noexcept;

  /// Drive side: reset the in-window arrival count (window boundary).
  void reset_window() noexcept { window_count_ = 0; }

  std::uint64_t offered() const noexcept {
    return offered_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> budget_{kUnlimitedBudget};
  /// Surviving hash band for per-flow-fair, out of 1024 (1024 = admit all).
  std::atomic<std::uint32_t> band_{1024};
  std::atomic<bool> flow_fair_{false};
  /// Arbiter -> drive: bump to restart the drive-side window count (live
  /// mode, where the arbiter owns the window clock).
  std::atomic<std::uint64_t> window_epoch_{0};
  // Drive-thread local.
  std::uint64_t window_count_ = 0;
  std::uint64_t seen_epoch_ = 0;
  // Single-writer cumulative counters, readable from the arbiter.
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> shed_{0};
};

/// One tenant's outcome of an in-process run().
struct TenantResult {
  std::string id;
  std::uint64_t offered = 0;    // host-gate arrivals
  std::uint64_t gate_shed = 0;  // shed at the host gate
  std::uint64_t forwarded = 0;  // entered the tenant's executor
  /// Executor-side stats (RunStats.packets == executor-admitted).
  runtime::RunStats stats;
  /// Post-chain packets in tenant input order, dropped ones included —
  /// what the differential-equivalence harness compares against solo runs.
  std::vector<net::Packet> outputs;
  std::size_t realloc_events = 0;  // reshard operations touching this tenant
  std::size_t final_shards = 0;    // 0 for runner tenants
  int max_escalation = 0;          // highest ladder position reached
  double worst_window_p99_us = 0.0;
  double last_window_p99_us = 0.0;

  /// Delivered packets counted from the actual outputs, never a counter.
  std::uint64_t delivered() const noexcept;
};

struct HostRunResult {
  std::vector<TenantResult> tenants;  // spec order
  double wall_seconds = 0.0;
  std::uint64_t enforcement_ticks = 0;
};

/// Live-mode knobs (serve()).
struct ServeOptions {
  /// Every tenant's listener; its port comes from the tenant's spec
  /// (listen_port), never from here.
  io::IngestConfig ingest;
  /// Enforcement-loop poll period.
  int enforce_interval_ms = 20;
};

/// One tenant's outcome of a live serve().
struct TenantServeResult {
  std::string id;
  std::uint16_t udp_port = 0;
  std::uint16_t tcp_port = 0;
  io::IngestStats ingest;
  std::uint64_t gate_offered = 0;
  std::uint64_t gate_shed = 0;
  runtime::RunStats stats;
  std::size_t realloc_events = 0;
  std::size_t final_shards = 0;
  int max_escalation = 0;
};

class TenantHost {
 public:
  /// Validates the spec and builds every tenant's executor via
  /// plan::build(). When `registry` is null the host owns a private one
  /// (the enforcement loop needs telemetry for its latency signals).
  /// Telemetry for tenant executors registers under the tenant's id, with
  /// the tenant label stamped via telemetry::TenantScope.
  explicit TenantHost(HostSpec spec,
                      telemetry::Registry* registry = nullptr);
  ~TenantHost();

  TenantHost(const TenantHost&) = delete;
  TenantHost& operator=(const TenantHost&) = delete;

  /// In-process drive (one-shot): materialize every tenant's workload,
  /// interleave proportionally, enforce every
  /// enforcement.window_packets host arrivals.
  HostRunResult run();

  /// Live drive (one-shot): bind one listener per tenant (listen_port, 0 =
  /// ephemeral), serve until every tenant hits the idle timeout. Call
  /// bind_listeners() first if the ports must be known before traffic.
  std::vector<TenantServeResult> serve(const ServeOptions& options);

  /// Bind the listeners eagerly (idempotent; serve() does it lazily).
  /// Returns one (udp_port, tcp_port) pair per tenant, spec order.
  std::vector<std::pair<std::uint16_t, std::uint16_t>> bind_listeners(
      const ServeOptions& options);

  const HostSpec& spec() const noexcept { return spec_; }
  telemetry::Registry& registry() noexcept { return *registry_; }

 private:
  struct Tenant;

  /// Per-tenant windowed latency p99 from telemetry bucket deltas
  /// (tenant-labelled shards only) — the per-tenant analogue of
  /// control::Controller::compute_signals.
  double window_p99_us(Tenant& tenant,
                       const telemetry::MetricsSnapshot& snapshot);
  /// One enforcement decision: signals -> policy -> gates + reallocation.
  /// `apply_resharding` false defers shard deltas to the tenants' own
  /// dispatcher threads (live mode).
  void enforcement_tick(bool apply_resharding);
  /// Apply one shard delta to a tenant (caller must be that runtime's
  /// dispatcher thread, at a packet boundary).
  void apply_shard_delta(Tenant& tenant, int delta);

  HostSpec spec_;
  std::unique_ptr<telemetry::Registry> owned_registry_;
  telemetry::Registry* registry_ = nullptr;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  SloEnforcementPolicy policy_;
  std::uint64_t ticks_ = 0;
  bool listeners_bound_ = false;
};

}  // namespace speedybox::tenancy
