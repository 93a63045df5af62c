#include "tenancy/tenant_host.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "control/flow_migration.hpp"
#include "util/cycle_clock.hpp"
#include "util/histogram.hpp"

namespace speedybox::tenancy {

namespace {

std::uint64_t flow_hash_of(const net::Packet& packet) noexcept {
  const auto parsed = net::parse_packet(packet);
  if (!parsed) return 0;
  return net::extract_five_tuple(packet, *parsed).symmetric_hash();
}

}  // namespace

// -- TenantGate --------------------------------------------------------------

void TenantGate::configure(std::uint64_t budget, runtime::DropPolicy policy,
                           std::uint64_t last_offered) noexcept {
  budget_.store(budget, std::memory_order_relaxed);
  const bool fair = policy == runtime::DropPolicy::kPerFlowFair &&
                    budget != kUnlimitedBudget;
  if (fair) {
    // Surviving band sized to last window's observed arrivals: admit the
    // fraction of the flow-hash space the budget can carry.
    const std::uint64_t denom = std::max(last_offered, budget);
    const std::uint64_t band = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(1024, budget * 1024 / denom));
    band_.store(static_cast<std::uint32_t>(band),
                std::memory_order_relaxed);
  } else {
    band_.store(1024, std::memory_order_relaxed);
  }
  flow_fair_.store(fair, std::memory_order_relaxed);
  window_epoch_.fetch_add(1, std::memory_order_relaxed);
}

bool TenantGate::offer(std::uint64_t flow_hash) noexcept {
  const std::uint64_t epoch = window_epoch_.load(std::memory_order_relaxed);
  if (epoch != seen_epoch_) {
    seen_epoch_ = epoch;
    window_count_ = 0;
  }
  offered_.store(offered_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  const std::uint64_t budget = budget_.load(std::memory_order_relaxed);
  bool admit = true;
  if (budget != kUnlimitedBudget) {
    if (flow_fair_.load(std::memory_order_relaxed)) {
      admit = (flow_hash % 1024) <
              band_.load(std::memory_order_relaxed);
    } else {
      admit = window_count_ < budget;
    }
  }
  ++window_count_;
  if (!admit) {
    shed_.store(shed_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
  return admit;
}

std::uint64_t TenantResult::delivered() const noexcept {
  std::uint64_t count = 0;
  for (const net::Packet& packet : outputs) {
    if (!packet.dropped()) ++count;
  }
  return count;
}

// -- TenantHost --------------------------------------------------------------

struct TenantHost::Tenant {
  const TenantSpec* spec = nullptr;
  plan::BuiltDeployment built;
  /// Control-plane handle (quiesce, reshard); null for runner tenants.
  runtime::ShardedRuntime* sharded = nullptr;
  TenantGate gate;

  // Windowed-signal baselines (cumulative counters/buckets at last tick).
  util::LogHistogram prev_latency;
  std::uint64_t offered_base = 0;
  std::uint64_t forwarded_base = 0;

  /// Arbiter-readable mirror of the sharded runtime's active shard count
  /// (the runtime's own field is dispatcher-thread-only).
  std::atomic<std::size_t> shards_view{0};
  /// Live mode: arbiter -> ingest-thread shard delta, applied by the
  /// tenant's own dispatcher at a packet boundary.
  std::atomic<int> pending_delta{0};

  std::size_t realloc_events = 0;
  int max_escalation = 0;
  double worst_p99_us = 0.0;
  double last_p99_us = 0.0;

  // Live mode.
  std::unique_ptr<io::IngestServer> server;
  io::IngestStats serve_stats;
};

TenantHost::TenantHost(HostSpec spec, telemetry::Registry* registry)
    : spec_(std::move(spec)),
      policy_((spec_.validate(), spec_.enforcement), spec_.tenants.size()) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<telemetry::Registry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  for (const TenantSpec& tenant_spec : spec_.tenants) {
    auto tenant = std::make_unique<Tenant>();
    tenant->spec = &tenant_spec;
    {
      // Every metric shard the executor registers — now or on a later
      // scale-up — carries the tenant as a first-class label.
      const telemetry::TenantScope scope(*registry_, tenant_spec.id);
      tenant->built = plan::build(tenant_spec.plan);
      tenant->built.executor->attach_telemetry(registry_, tenant_spec.id);
    }
    tenant->sharded = dynamic_cast<runtime::ShardedRuntime*>(
        tenant->built.executor.get());
    if (tenant->sharded != nullptr) {
      tenant->shards_view.store(tenant->sharded->active_shard_count(),
                                std::memory_order_relaxed);
      if (spec_.enforcement.reallocate_shards) {
        // Fail before the first packet, never mid-migration.
        control::require_migratable(tenant->sharded->shard_chain(0));
      }
    }
    tenants_.push_back(std::move(tenant));
  }
}

TenantHost::~TenantHost() = default;

double TenantHost::window_p99_us(
    Tenant& tenant, const telemetry::MetricsSnapshot& snapshot) {
  // Per-packet latency = fast-path and slow-path cycle histograms of the
  // tenant's shards, merged; the window's distribution is the cumulative
  // histogram since the previous tick's (control::Controller::
  // compute_signals, restricted to one tenant label).
  util::LogHistogram latency;
  for (const telemetry::ShardSnapshot& shard : snapshot.shards) {
    if (shard.tenant != tenant.spec->id) continue;
    for (const auto& [name, hist] : shard.histograms) {
      if (name == "fastpath_cycles" || name == "slowpath_cycles") {
        latency.merge(hist);
      }
    }
  }
  const util::LogHistogram window_hist = latency.since(tenant.prev_latency);
  tenant.prev_latency = std::move(latency);
  if (window_hist.count() == 0) return 0.0;
  return util::CycleClock::to_us(
      static_cast<std::uint64_t>(window_hist.percentile(99.0)));
}

void TenantHost::apply_shard_delta(Tenant& tenant, int delta) {
  if (tenant.sharded == nullptr || delta == 0) return;
  const std::size_t active = tenant.sharded->active_shard_count();
  std::size_t target = active;
  if (delta > 0) {
    target = active + static_cast<std::size_t>(delta);
  } else if (active > static_cast<std::size_t>(-delta)) {
    target = active - static_cast<std::size_t>(-delta);
  } else {
    target = 1;
  }
  if (target == active) return;
  // New worker shards registered by the scale-up inherit the tenant label.
  const telemetry::TenantScope scope(*registry_, tenant.spec->id);
  const control::ReshardReport report = control::reshard(*tenant.sharded,
                                                         target);
  if (report.to_shards == report.from_shards) return;  // refused
  tenant.shards_view.store(tenant.sharded->active_shard_count(),
                           std::memory_order_relaxed);
  ++tenant.realloc_events;
}

void TenantHost::enforcement_tick(bool apply_resharding) {
  ++ticks_;
  if (apply_resharding) {
    // In-process drive: this thread is every tenant's dispatcher, so the
    // shard rings can be drained before sampling — otherwise the window
    // histograms race with the workers and a lagging shard reads as an
    // idle (never-breaching) window. Live mode ticks on the arbiter
    // thread, which must not touch the rings; its windows stay
    // best-effort.
    for (const std::unique_ptr<Tenant>& tenant : tenants_) {
      if (tenant->sharded != nullptr) tenant->sharded->quiesce();
    }
  }
  const telemetry::MetricsSnapshot snapshot = registry_->snapshot();
  std::vector<TenantInput> inputs(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = *tenants_[i];
    TenantInput& input = inputs[i];
    input.slo_us = tenant.spec->slo_us;
    input.weight = tenant.spec->weight;
    input.sharded = tenant.sharded != nullptr;
    input.active_shards =
        tenant.shards_view.load(std::memory_order_relaxed);
    const std::uint64_t offered = tenant.gate.offered();
    const std::uint64_t forwarded = offered - tenant.gate.shed();
    input.signals.window_offered = offered - tenant.offered_base;
    input.signals.window_forwarded = forwarded - tenant.forwarded_base;
    tenant.offered_base = offered;
    tenant.forwarded_base = forwarded;
    input.signals.p99_latency_us = window_p99_us(tenant, snapshot);
    if (input.signals.window_offered > 0) {
      tenant.last_p99_us = input.signals.p99_latency_us;
      tenant.worst_p99_us =
          std::max(tenant.worst_p99_us, input.signals.p99_latency_us);
    }
  }
  const std::vector<TenantDecision> decisions =
      policy_.tick(inputs, spec_.effective_pool_shards());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = *tenants_[i];
    tenant.gate.configure(decisions[i].admission_budget,
                          decisions[i].gate_policy,
                          inputs[i].signals.window_offered);
    tenant.max_escalation =
        std::max(tenant.max_escalation, decisions[i].escalation);
  }
  // Givers release before takers claim, so the pool budget holds at every
  // intermediate step.
  for (const int phase : {-1, +1}) {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const int delta = decisions[i].shard_delta;
      if (delta == 0 || (delta < 0) != (phase < 0)) continue;
      if (apply_resharding) {
        apply_shard_delta(*tenants_[i], delta);
      } else {
        tenants_[i]->pending_delta.fetch_add(delta,
                                             std::memory_order_relaxed);
      }
    }
  }
}

HostRunResult TenantHost::run() {
  const std::size_t count = tenants_.size();
  std::vector<std::vector<net::Packet>> packets(count);
  std::vector<std::size_t> sent(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const trace::Workload workload = tenants_[i]->spec->workload.build();
    packets[i].reserve(workload.packet_count());
    for (std::size_t p = 0; p < workload.packet_count(); ++p) {
      packets[i].push_back(workload.materialize(p));
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t arrivals = 0;
  for (;;) {
    // Proportional interleave: the tenant with the lowest sent/total ratio
    // goes next (exact cross-multiplied comparison; ties -> lowest index),
    // so every tenant's traffic spreads evenly across the host's run
    // regardless of trace lengths.
    std::size_t next = count;
    for (std::size_t i = 0; i < count; ++i) {
      if (sent[i] >= packets[i].size()) continue;
      if (next == count) {
        next = i;
        continue;
      }
      const std::uint64_t lhs = static_cast<std::uint64_t>(sent[i] + 1) *
                                packets[next].size();
      const std::uint64_t rhs =
          static_cast<std::uint64_t>(sent[next] + 1) * packets[i].size();
      if (lhs < rhs) next = i;
    }
    if (next == count) break;  // every tenant drained

    Tenant& tenant = *tenants_[next];
    net::Packet packet = std::move(packets[next][sent[next]]);
    ++sent[next];
    if (tenant.gate.offer(flow_hash_of(packet))) {
      tenant.built.executor->submit({&packet, 1}, /*keep=*/true);
    }
    if (++arrivals % spec_.enforcement.window_packets == 0) {
      enforcement_tick(/*apply_resharding=*/true);
    }
  }

  HostRunResult result;
  result.tenants.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tenant& tenant = *tenants_[i];
    TenantResult& out = result.tenants[i];
    out.id = tenant.spec->id;
    out.stats = tenant.built.executor->drain(&out.outputs);
    if (tenant.sharded != nullptr) {
      out.final_shards = tenant.sharded->active_shard_count();
    }
    out.offered = tenant.gate.offered();
    out.gate_shed = tenant.gate.shed();
    out.forwarded = out.offered - out.gate_shed;
    out.realloc_events = tenant.realloc_events;
    out.max_escalation = tenant.max_escalation;
    out.worst_window_p99_us = tenant.worst_p99_us;
    out.last_window_p99_us = tenant.last_p99_us;
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.enforcement_ticks = ticks_;
  return result;
}

std::vector<std::pair<std::uint16_t, std::uint16_t>>
TenantHost::bind_listeners(const ServeOptions& options) {
  if (!listeners_bound_) {
    for (auto& tenant : tenants_) {
      io::IngestConfig config = options.ingest;
      config.port = tenant->spec->listen_port;
      tenant->server = std::make_unique<io::IngestServer>(config);
      const telemetry::TenantScope scope(*registry_, tenant->spec->id);
      tenant->server->attach_telemetry(registry_,
                                       tenant->spec->id + "/ingest");
    }
    listeners_bound_ = true;
  }
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ports;
  ports.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    ports.push_back(
        {tenant->server->udp_port(), tenant->server->tcp_port()});
  }
  return ports;
}

std::vector<TenantServeResult> TenantHost::serve(
    const ServeOptions& options) {
  bind_listeners(options);
  std::atomic<std::size_t> active{tenants_.size()};
  std::vector<std::thread> ingest_threads;
  ingest_threads.reserve(tenants_.size());
  for (auto& tenant_ptr : tenants_) {
    Tenant& tenant = *tenant_ptr;
    ingest_threads.emplace_back([this, &tenant, &active] {
      tenant.serve_stats = tenant.server->serve(
          *tenant.built.executor, [this, &tenant](const net::Packet& packet) {
            // The ingest thread is this runtime's dispatcher, and the gate
            // runs at a packet boundary — the only place a live reshard
            // may land.
            const int pending =
                tenant.pending_delta.exchange(0, std::memory_order_acq_rel);
            if (pending != 0) apply_shard_delta(tenant, pending);
            return tenant.gate.offer(flow_hash_of(packet));
          });
      active.fetch_sub(1, std::memory_order_release);
    });
  }
  // Enforcement loop: poll telemetry until every listener idles out.
  while (active.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.enforce_interval_ms));
    enforcement_tick(/*apply_resharding=*/false);
  }
  for (std::thread& thread : ingest_threads) thread.join();

  std::vector<TenantServeResult> results(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = *tenants_[i];
    TenantServeResult& out = results[i];
    out.id = tenant.spec->id;
    out.udp_port = tenant.server->udp_port();
    out.tcp_port = tenant.server->tcp_port();
    out.ingest = tenant.serve_stats;
    out.stats = tenant.built.executor->drain(nullptr);
    out.gate_offered = tenant.gate.offered();
    out.gate_shed = tenant.gate.shed();
    out.realloc_events = tenant.realloc_events;
    out.final_shards = tenant.sharded != nullptr
                           ? tenant.sharded->active_shard_count()
                           : 0;
    out.max_escalation = tenant.max_escalation;
  }
  return results;
}

}  // namespace speedybox::tenancy
