// chainsim — build a service chain from a spec string or a deployment-plan
// document, drive it with a generated workload or a pcap, and report
// original-vs-SpeedyBox results.
//
//   chainsim --chain nat,maglev,monitor,ipfilter --flows 200 --packets 20
//   chainsim --chain ipfilter,snort,monitor --datacenter --csv
//   chainsim --chain maglev:backends=8:table=65537,monitor   # NF options
//   chainsim --chain nat,monitor --pcap capture.pcap
//   chainsim --chain maglev,monitor --fail-backend-at 1000
//   chainsim --chain vpn-out,monitor,vpn-in --export-pcap tunnel.pcap
//   chainsim --chain firewall,snort --overload 2.0 --drop-policy slo-early-drop
//   chainsim --chain nat,monitor --inject-fault nat:fail-every=100
//   chainsim --chain nat,monitor --mode speedybox --listen 9000   # live wire
//                                                 # mode; pair with loadgen
//   chainsim --chain nat,monitor --emit-plan plan.json   # flags -> plan doc
//   chainsim --plan plan.json                            # plan doc -> run
//
// The NF vocabulary lives in nf::Registry (nf/registry.hpp); the flag
// surface lives in tools/sim_config.{hpp,cpp}. The flags fill a
// plan::DeploymentPlan (or --plan loads one) and a trace::WorkloadSpec;
// plan::build() constructs the executor and WorkloadSpec::build() the
// trace — chainsim itself only owns the reporting, the run loop and the
// live front-end.
#include <sys/resource.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/controller.hpp"
#include "io/ingest_server.hpp"
#include "nf/maglev_lb.hpp"
#include "runtime/plan.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim_config.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "tenancy/tenant_host.hpp"
#include "trace/pcap.hpp"
#include "util/cycle_clock.hpp"
#include "util/logging.hpp"

using namespace speedybox;
using tools::SimConfig;

namespace {

/// First Maglev in the chain, for --fail-backend-at (nullptr when the
/// chain has none — then the flag is a no-op).
nf::MaglevLb* find_maglev(runtime::ServiceChain& chain) {
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (auto* maglev = dynamic_cast<nf::MaglevLb*>(&chain.nf(i))) {
      return maglev;
    }
  }
  return nullptr;
}

/// `cycle_model` turns the platform cycle model on over the plan's own
/// setting: the trace-driven report prints modeled columns.
plan::BuiltDeployment build_deployment(const SimConfig& config,
                                       bool speedybox, bool cycle_model) {
  plan::DeploymentPlan deployment = config.plan_for(speedybox);
  deployment.cycle_model = deployment.cycle_model || cycle_model;
  try {
    return plan::build(deployment);
  } catch (const std::exception& error) {
    tools::config_error("chainsim", error.what());
  }
}

std::vector<net::Packet> build_packets(const SimConfig& config) {
  if (!config.pcap_in.empty()) {
    return trace::read_pcap(config.pcap_in);
  }
  const trace::Workload workload = config.workload.build();
  if (!config.pcap_out.empty()) {
    write_pcap(config.pcap_out, workload);
    std::fprintf(stderr, "wrote %zu packets to %s\n",
                 workload.packet_count(), config.pcap_out.c_str());
  }
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

void report(const SimConfig& config, const char* mode,
            const runtime::RunStats& stats) {
  const auto latency_us = [&stats](double p) {
    return util::CycleClock::to_us(static_cast<std::uint64_t>(
        stats.latency_cycles_subsequent.percentile(p)));
  };
  // The cycle model lives in ChainRunner; a run without it (live ingest)
  // or a shape that keeps none (the threaded pipeline) records no latency
  // samples, and its model columns read n/a (empty in CSV) rather than
  // zeros.
  char model[128] = "";
  if (stats.latency_cycles_initial.count() > 0 ||
      stats.latency_cycles_subsequent.count() > 0) {
    std::snprintf(model, sizeof model,
                  config.csv ? "%.0f,%.3f,%.3f,%.3f"
                             : "cyc/pkt(p50)=%-6.0f lat(p50/p99)=%.3f/%.3f "
                               "us  rate=%.3f Mpps",
                  stats.platform_cycles_subsequent.percentile(50),
                  latency_us(50), latency_us(99),
                  stats.rate_mpps(config.deployment.platform));
  } else {
    std::snprintf(model, sizeof model, "%s",
                  config.csv ? ",,," : "model=n/a");
  }
  const runtime::OverloadStats& overload = stats.overload;
  if (config.csv) {
    std::printf("%s,%s,%llu,%llu,%llu,%s,%llu,%llu,%llu\n",
                platform_name(config.deployment.platform), mode,
                static_cast<unsigned long long>(stats.packets),
                static_cast<unsigned long long>(stats.drops),
                static_cast<unsigned long long>(stats.events_triggered),
                model, static_cast<unsigned long long>(overload.offered),
                static_cast<unsigned long long>(overload.shed_total()),
                static_cast<unsigned long long>(overload.faulted));
    return;
  }
  std::printf("%-9s %-10s packets=%-8llu drops=%-6llu events=%-4llu %s\n",
              platform_name(config.deployment.platform), mode,
              static_cast<unsigned long long>(stats.packets),
              static_cast<unsigned long long>(stats.drops),
              static_cast<unsigned long long>(stats.events_triggered),
              model);
  if (overload.offered > 0 || overload.faulted > 0) {
    std::printf("  overload: offered=%llu admitted=%llu "
                "shed(wm/early)=%llu/%llu faulted=%llu "
                "degraded(flows/pkts/episodes)=%llu/%llu/%llu\n",
                static_cast<unsigned long long>(overload.offered),
                static_cast<unsigned long long>(overload.admitted),
                static_cast<unsigned long long>(overload.shed_watermark),
                static_cast<unsigned long long>(overload.shed_early_drop),
                static_cast<unsigned long long>(overload.faulted),
                static_cast<unsigned long long>(overload.degraded_flows),
                static_cast<unsigned long long>(overload.degraded_packets),
                static_cast<unsigned long long>(overload.degraded_episodes));
  }
}

/// The trace as run_mode drives it, one run per segment. --fail-backend-at
/// K cuts it at packet K into two segments (moved, not copied), and Maglev's
/// backend 0 fails between their runs — a mid-run control-plane action.
/// resolve_plan() admits the flag only on the single-threaded runner, whose
/// run() may be called again and whose stats accumulate.
using Segments = std::vector<std::vector<net::Packet>>;

Segments split_at_failure(const SimConfig& config,
                          std::vector<net::Packet> packets) {
  Segments segments;
  if (config.fail_backend_at.value_or(packets.size()) < packets.size()) {
    const auto cut = packets.begin() +
                     static_cast<std::ptrdiff_t>(*config.fail_backend_at);
    segments.emplace_back(std::make_move_iterator(packets.begin()),
                          std::make_move_iterator(cut));
    packets.erase(packets.begin(), cut);
  }
  segments.push_back(std::move(packets));
  return segments;
}

void run_mode(const SimConfig& config, bool speedybox,
              const Segments& segments, telemetry::Registry* registry) {
  plan::BuiltDeployment built =
      build_deployment(config, speedybox, /*cycle_model=*/true);
  const plan::DeploymentPlan& deployment = config.deployment;
  const std::string mode = speedybox ? "speedybox" : "original";

  // plan::build() already chose the executor shape and applied the
  // overload policy; everything below is shape-agnostic.
  runtime::Executor& executor = *built.executor;
  const std::string label =
      deployment.executor == plan::ExecutorKind::kRunner ? mode + "/main"
                                                         : mode;
  // The controller's signals come from telemetry snapshots; when the user
  // asked for autoscaling without any metrics flag, a private registry
  // feeds the control loop and is simply discarded afterwards.
  std::unique_ptr<telemetry::Registry> private_registry;
  telemetry::Registry* effective_registry = registry;
  if (config.autoscale && effective_registry == nullptr) {
    private_registry = std::make_unique<telemetry::Registry>();
    effective_registry = private_registry.get();
  }
  executor.attach_telemetry(effective_registry, label);
  std::unique_ptr<control::Controller> controller;
  if (config.autoscale) {
    control::AutoscaleConfig auto_config;
    auto_config.slo_us = config.slo_us;
    auto_config.min_shards = config.min_shards;
    auto_config.max_shards = config.max_shards;
    auto_config.interval_packets = config.scale_interval;
    controller = std::make_unique<control::Controller>(
        auto_config, *effective_registry, label + "/controller");
    controller->attach(static_cast<runtime::ShardedRuntime&>(executor));
  }
  nf::MaglevLb* maglev = find_maglev(*built.chain);
  const runtime::RunStats* last = nullptr;
  for (const std::vector<net::Packet>& segment : segments) {
    if (last != nullptr && maglev != nullptr) maglev->fail_backend(0);
    last = &executor.run(segment, nullptr);
  }
  const runtime::RunStats& stats = *last;

  std::string report_label = mode;
  if (deployment.executor != plan::ExecutorKind::kRunner) {
    report_label +=
        std::string(" [") + plan::executor_kind_name(deployment.executor);
    if (deployment.shards > 0) {
      report_label += " x" + std::to_string(deployment.shards);
    }
    report_label += "]";
  }
  report(config, report_label.c_str(), stats);

  if (deployment.executor == plan::ExecutorKind::kSharded && !config.csv) {
    auto& sharded = static_cast<runtime::ShardedRuntime&>(executor);
    const runtime::ShardedRunResult& result = sharded.last_result();
    std::printf("  shards: agg-rate=%.3f Mpps, wall=%.1f ms, "
                "backpressure-waits=%llu, per-shard packets = [",
                result.aggregate_rate_mpps, result.wall_seconds * 1e3,
                static_cast<unsigned long long>(
                    sharded.backpressure_waits()));
    for (std::size_t s = 0; s < result.shard_packets.size(); ++s) {
      std::printf("%s%llu", s == 0 ? "" : ", ",
                  static_cast<unsigned long long>(result.shard_packets[s]));
    }
    std::printf("]\n");
  }
  if (controller != nullptr && !config.csv) {
    auto& sharded = static_cast<runtime::ShardedRuntime&>(executor);
    std::uint64_t migrated = 0;
    for (const control::ReshardReport& event : controller->scale_events()) {
      migrated += event.migrated_flows;
    }
    std::printf("  autoscale: scale-events=%zu migrated-flows=%llu "
                "final-shards=%zu (of %zu started)\n",
                controller->scale_events().size(),
                static_cast<unsigned long long>(migrated),
                sharded.active_shard_count(), sharded.shard_count());
  }
}

/// Live mode: real wire packets off a socket instead of an in-process
/// trace. Same plan-built chain/executor/overload as run_mode; the packet
/// source is an IngestServer, which submits each batch to the executor.
int run_live(const SimConfig& config, telemetry::Registry* registry) {
  const plan::DeploymentPlan& deployment = config.deployment;
  const std::string mode = deployment.speedybox ? "speedybox" : "original";
  plan::BuiltDeployment built =
      build_deployment(config, deployment.speedybox, /*cycle_model=*/false);
  runtime::Executor& executor = *built.executor;
  const std::string label =
      deployment.executor == plan::ExecutorKind::kRunner ? mode + "/main"
                                                         : mode;
  executor.attach_telemetry(registry, label);

  io::IngestConfig ingest_config = config.ingest;
  ingest_config.batch_size = deployment.batch_size;
  io::IngestServer server{ingest_config};
  server.attach_telemetry(registry, mode + "/ingest");

  // The load generator (or the CI smoke) discovers the bound port from
  // this line, so it must hit the pipe before serve() blocks.
  std::printf("chainsim: listening on %s", config.ingest.proto ==
                                                   io::IngestProto::kTcp
                                               ? ""
                                               : "udp ");
  if (config.ingest.proto != io::IngestProto::kTcp) {
    std::printf("127.0.0.1:%u", server.udp_port());
  }
  if (config.ingest.proto != io::IngestProto::kUdp) {
    std::printf("%stcp 127.0.0.1:%u",
                config.ingest.proto == io::IngestProto::kBoth ? " " : "",
                server.tcp_port());
  }
  std::printf(" (mode=%s executor=%s)\n", mode.c_str(),
              plan::executor_kind_name(deployment.executor));
  std::fflush(stdout);

  const io::IngestStats ingest = server.serve(executor);
  const runtime::RunStats& stats = executor.drain(nullptr);

  std::string report_label = mode + " [live";
  if (deployment.executor != plan::ExecutorKind::kRunner) {
    report_label +=
        std::string(" ") + plan::executor_kind_name(deployment.executor);
    if (deployment.shards > 0) {
      report_label += " x" + std::to_string(deployment.shards);
    }
  }
  report_label += "]";
  report(config, report_label.c_str(), stats);

  // Machine-readable summary for the closed-loop smoke. `admitted`/`shed`
  // come from the overload gate when it is on; with the gate off, every
  // packet the executor ran was admitted. Conservation compares the
  // server's frame count with the executor's,
  //   rx_frames == admitted + shed,
  // and the smoke checks
  //   sent == admitted + shed + parse_errors + socket_drops
  // against the load generator's own count.
  const runtime::OverloadStats& overload = stats.overload;
  const std::uint64_t admitted =
      deployment.overload.enabled ? overload.admitted : stats.packets;
  const std::uint64_t shed =
      deployment.overload.enabled ? overload.shed_total() : 0;
  const bool conserved = ingest.rx_frames == admitted + shed;
  // Peak resident set of the whole run: live mode must stay bounded however
  // many packets it serves (tools/live_smoke.sh compares two run lengths).
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf(
      "{\"live\":{\"proto\":\"%s\",\"executor\":\"%s\",\"mode\":\"%s\","
      "\"rx_bytes\":%llu,\"rx_frames\":%llu,"
      "\"rx_batches\":%llu,\"parse_errors\":%llu,\"socket_drops\":%llu,"
      "\"tcp_connections\":%llu,\"poisoned_streams\":%llu,"
      "\"admitted\":%llu,\"shed\":%llu,"
      "\"chain_packets\":%llu,\"chain_drops\":%llu,\"conserved\":%s,"
      "\"peak_rss_kb\":%ld}}\n",
      io::ingest_proto_name(config.ingest.proto),
      plan::executor_kind_name(deployment.executor), mode.c_str(),
      static_cast<unsigned long long>(ingest.rx_bytes),
      static_cast<unsigned long long>(ingest.rx_frames),
      static_cast<unsigned long long>(ingest.rx_batches),
      static_cast<unsigned long long>(ingest.parse_errors),
      static_cast<unsigned long long>(ingest.socket_drops),
      static_cast<unsigned long long>(ingest.tcp_connections),
      static_cast<unsigned long long>(ingest.poisoned_streams),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(stats.packets),
      static_cast<unsigned long long>(stats.drops),
      conserved ? "true" : "false", usage.ru_maxrss);
  std::fflush(stdout);
  return conserved ? 0 : 1;
}

/// Multi-tenant hosting (--tenancy): several independent chains on one
/// shared shard pool, the SLO enforcement loop arbitrating between them.
/// Emits one JSON line per tenant plus a host summary; exit 0 iff every
/// tenant's conservation identity holds.
int run_tenancy(const SimConfig& config, telemetry::Registry* registry) {
  const std::string text =
      tools::read_flag_file("chainsim", "--tenancy", config.tenancy_file);
  tenancy::HostSpec spec;
  try {
    spec = tenancy::HostSpec::parse(text);
    spec.validate();
  } catch (const std::exception& error) {
    tools::config_error("chainsim", "--tenancy " + config.tenancy_file +
                                        ": " + error.what());
  }
  tenancy::TenantHost host{std::move(spec), registry};
  bool all_conserved = true;

  if (config.listen) {
    tenancy::ServeOptions options;
    options.ingest = config.ingest;
    options.ingest.batch_size = config.deployment.batch_size;
    const auto ports = host.bind_listeners(options);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      // The smoke script discovers every tenant's bound port from these
      // lines, so they must hit the pipe before serve() blocks.
      std::printf("chainsim: tenant %s listening on",
                  host.spec().tenants[i].id.c_str());
      if (config.ingest.proto != io::IngestProto::kTcp) {
        std::printf(" udp 127.0.0.1:%u", ports[i].first);
      }
      if (config.ingest.proto != io::IngestProto::kUdp) {
        std::printf(" tcp 127.0.0.1:%u", ports[i].second);
      }
      std::printf("\n");
    }
    std::fflush(stdout);
    const std::vector<tenancy::TenantServeResult> results =
        host.serve(options);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const tenancy::TenantServeResult& tenant = results[i];
      const runtime::OverloadStats& overload = tenant.stats.overload;
      const bool gated = host.spec().tenants[i].plan.overload.enabled;
      const std::uint64_t admitted =
          gated ? overload.admitted : tenant.stats.packets;
      const std::uint64_t shed = overload.shed_total();
      const std::uint64_t forwarded = tenant.gate_offered - tenant.gate_shed;
      // Each identity compares two owners' counts: the server's frames
      // with the host gate's arrivals, and what the gate let through with
      // the executor's arrivals. Delivered cannot be byte-counted live (no
      // output capture).
      const bool conserved =
          tenant.gate_offered == tenant.ingest.rx_frames &&
          forwarded == (gated ? overload.offered : tenant.stats.packets);
      all_conserved = all_conserved && conserved;
      std::printf(
          "{\"tenant\":{\"id\":\"%s\",\"udp_port\":%u,\"rx_frames\":%llu,"
          "\"parse_errors\":%llu,\"socket_drops\":%llu,\"offered\":%llu,"
          "\"gate_shed\":%llu,\"forwarded\":%llu,\"admitted\":%llu,"
          "\"shed\":%llu,\"chain_packets\":%llu,\"chain_drops\":%llu,"
          "\"realloc_events\":%zu,\"final_shards\":%zu,"
          "\"max_escalation\":%d,\"conserved\":%s}}\n",
          tenant.id.c_str(), tenant.udp_port,
          static_cast<unsigned long long>(tenant.ingest.rx_frames),
          static_cast<unsigned long long>(tenant.ingest.parse_errors),
          static_cast<unsigned long long>(tenant.ingest.socket_drops),
          static_cast<unsigned long long>(tenant.gate_offered),
          static_cast<unsigned long long>(tenant.gate_shed),
          static_cast<unsigned long long>(forwarded),
          static_cast<unsigned long long>(admitted),
          static_cast<unsigned long long>(shed),
          static_cast<unsigned long long>(tenant.stats.packets),
          static_cast<unsigned long long>(tenant.stats.drops),
          tenant.realloc_events, tenant.final_shards, tenant.max_escalation,
          conserved ? "true" : "false");
    }
    std::printf("{\"tenancy\":{\"mode\":\"live\",\"tenants\":%zu,"
                "\"conserved\":%s}}\n",
                results.size(), all_conserved ? "true" : "false");
    std::fflush(stdout);
    return all_conserved ? 0 : 1;
  }

  const tenancy::HostRunResult result = host.run();
  for (const tenancy::TenantResult& tenant : result.tenants) {
    const runtime::OverloadStats& overload = tenant.stats.overload;
    const bool gated = overload.offered > 0 || overload.shed_total() > 0;
    const std::uint64_t admitted =
        gated ? overload.admitted : tenant.stats.packets;
    const std::uint64_t shed = overload.shed_total();
    const std::uint64_t delivered = tenant.delivered();
    // Per-tenant conservation, delivered counted from the actual outputs:
    //   offered == gate_shed + forwarded        (host gate)
    //   forwarded == admitted + shed            (executor arrival)
    //   admitted == delivered + drops + faulted (executor outcome)
    const bool conserved =
        tenant.offered == tenant.gate_shed + tenant.forwarded &&
        tenant.forwarded == admitted + shed &&
        admitted == delivered + tenant.stats.drops + overload.faulted;
    all_conserved = all_conserved && conserved;
    std::printf(
        "{\"tenant\":{\"id\":\"%s\",\"offered\":%llu,\"gate_shed\":%llu,"
        "\"forwarded\":%llu,\"admitted\":%llu,\"shed\":%llu,"
        "\"delivered\":%llu,\"chain_drops\":%llu,\"faulted\":%llu,"
        "\"realloc_events\":%zu,\"final_shards\":%zu,\"max_escalation\":%d,"
        "\"worst_p99_us\":%.3f,\"last_p99_us\":%.3f,\"conserved\":%s}}\n",
        tenant.id.c_str(), static_cast<unsigned long long>(tenant.offered),
        static_cast<unsigned long long>(tenant.gate_shed),
        static_cast<unsigned long long>(tenant.forwarded),
        static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(delivered),
        static_cast<unsigned long long>(tenant.stats.drops),
        static_cast<unsigned long long>(overload.faulted),
        tenant.realloc_events, tenant.final_shards, tenant.max_escalation,
        tenant.worst_window_p99_us, tenant.last_window_p99_us,
        conserved ? "true" : "false");
  }
  std::printf("{\"tenancy\":{\"mode\":\"in-process\",\"tenants\":%zu,"
              "\"ticks\":%llu,\"wall_seconds\":%.3f,\"conserved\":%s}}\n",
              result.tenants.size(),
              static_cast<unsigned long long>(result.enforcement_ticks),
              result.wall_seconds, all_conserved ? "true" : "false");
  std::fflush(stdout);
  return all_conserved ? 0 : 1;
}

/// Final metrics flush (both the trace-driven and live paths end here).
bool write_metrics(const SimConfig& config, telemetry::Registry* registry,
                   std::optional<telemetry::Snapshotter>& snapshotter) {
  if (registry == nullptr) return true;
  if (snapshotter) {
    snapshotter->stop();  // writes the final JSON-lines snapshot
  } else if (!config.metrics_out.empty()) {
    if (!telemetry::append_line(config.metrics_out,
                                to_json(registry->snapshot()))) {
      std::fprintf(stderr, "failed to write %s\n", config.metrics_out.c_str());
      return false;
    }
  }
  if (!config.metrics_prom.empty()) {
    const std::string text = to_prometheus(registry->snapshot());
    std::FILE* file = std::fopen(config.metrics_prom.c_str(), "w");
    if (file == nullptr ||
        std::fwrite(text.data(), 1, text.size(), file) != text.size() ||
        std::fclose(file) != 0) {
      std::fprintf(stderr, "failed to write %s\n",
                   config.metrics_prom.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig config = SimConfig::parse(argc, argv);
  config.validate();
  config.resolve_plan();
  if (!config.emit_plan.empty()) {
    return tools::write_plan("chainsim", config.emit_plan, config.deployment)
               ? 0
               : 1;
  }
  if (config.print_config) {
    std::printf("%s\n", config.to_json().c_str());
    return 0;
  }
  // One registry for the whole process; the two modes (and their shards)
  // disambiguate through shard labels ("original/shard0", "speedybox/main").
  std::unique_ptr<telemetry::Registry> registry;
  std::optional<telemetry::Snapshotter> snapshotter;
  if (!config.metrics_out.empty() || !config.metrics_prom.empty() ||
      config.trace_sample > 0) {
    registry = std::make_unique<telemetry::Registry>(config.trace_sample);
    if (config.metrics_interval_ms > 0 && !config.metrics_out.empty()) {
      snapshotter.emplace(
          *registry, config.metrics_out,
          std::chrono::milliseconds(config.metrics_interval_ms));
    }
  }

  if (!config.tenancy_file.empty()) {
    const int exit_code = run_tenancy(config, registry.get());
    if (!write_metrics(config, registry.get(), snapshotter)) return 1;
    return exit_code;
  }
  if (config.listen) {
    const int exit_code = run_live(config, registry.get());
    if (!write_metrics(config, registry.get(), snapshotter)) return 1;
    return exit_code;
  }
  const Segments segments = split_at_failure(config, build_packets(config));

  if (config.csv) {
    std::printf(
        "platform,mode,packets,drops,events,cycles_p50,lat_p50_us,"
        "lat_p99_us,rate_mpps,offered,shed,faulted\n");
  }
  for (const bool speedybox : {false, true}) {
    if (config.both_modes || config.deployment.speedybox == speedybox) {
      run_mode(config, speedybox, segments, registry.get());
    }
  }

  if (!write_metrics(config, registry.get(), snapshotter)) return 1;
  return 0;
}
