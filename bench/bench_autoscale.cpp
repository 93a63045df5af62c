// Autoscaling sweep (DESIGN.md §10): the elastic control plane against a
// step load and a calm ramp-down, with hard gates instead of eyeballed
// shapes.
//
//   step   1 shard, then a surge of new flows (slow-path recording storms
//          the latency windows) → the controller scales up toward
//          --max-shards. GATE: the windowed p99 recovers below the SLO
//          within a bounded packet budget after the last scale-up — which
//          is only possible if migrated flows land on the consolidated
//          fast path (re-recording them would keep every window slow).
//   ramp   4 shards under steady warm traffic and a generous SLO → the
//          controller scales down to --min-shards. GATE: zero packets
//          shed or dropped across every migration, and the retired
//          replicas hold no flows.
//
// Both runs check the PR-4 conservation identities exactly
// (offered == admitted + shed, admitted == delivered + drops + faulted).
// The SLO is self-calibrated from a static run (geometric mean of the
// fast-path p99 and the slow-path median), so the gates hold on any
// machine. Output: the printed series plus BENCH_autoscale.json.
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "control/controller.hpp"
#include "net/packet_builder.hpp"
#include "runtime/plan.hpp"
#include "runtime/sharded_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "util/histogram.hpp"

#include "bench_util.hpp"

namespace speedybox::bench {
namespace {

constexpr std::uint64_t kWindow = 512;       // control-loop cadence
constexpr std::size_t kMaxShards = 4;
constexpr std::size_t kBudgetWindows = 6;    // recovery budget (windows)
/// Rings sized past the longest trace: the dispatcher never blocks or
/// watermark-sheds on the host's real dispatcher/worker speed ratio, so
/// every series and gate below is machine-independent.
constexpr std::size_t kRingCapacity = 16384;

std::unique_ptr<runtime::ServiceChain> make_chain() {
  return plan::build_chain(plan::vii_c_chain1());
}

net::FiveTuple flow_tuple(std::uint32_t id) {
  net::FiveTuple tuple;
  tuple.src_ip = net::Ipv4Addr{0xC0A80000u + id + 2};  // 192.168/16 → NAT
  tuple.dst_ip = net::Ipv4Addr{10, 1, 0, 1};
  tuple.src_port = static_cast<std::uint16_t>(20000 + (id % 40000));
  tuple.dst_port = 80;
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  return tuple;
}

/// Step trace: `batches` windows each START `flows_per_batch` new flows
/// (their initial packets pay the recording slow path), padded to kWindow
/// with subsequent traffic of the already-started flows; then
/// `steady_windows` windows of pure subsequent traffic — the calm phase
/// the recovery gate measures.
std::vector<net::Packet> make_step_trace(std::size_t batches,
                                         std::size_t flows_per_batch,
                                         std::size_t steady_windows) {
  std::vector<net::Packet> packets;
  std::uint32_t started = 0;
  std::uint32_t next_subsequent = 0;
  const auto pad_subsequent = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      packets.push_back(net::make_tcp_packet(
          flow_tuple(next_subsequent++ % started), "steady"));
    }
  };
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t f = 0; f < flows_per_batch; ++f) {
      packets.push_back(
          net::make_tcp_packet(flow_tuple(started++), "first"));
    }
    pad_subsequent(kWindow - flows_per_batch);
  }
  pad_subsequent(steady_windows * kWindow);
  return packets;
}

/// Windowed latency probe: the same cumulative-histogram delta the
/// controller computes, kept on separate baselines so sampling does not
/// disturb the control loop.
class WindowProbe {
 public:
  explicit WindowProbe(telemetry::Registry& registry)
      : registry_(&registry) {}

  struct Window {
    std::uint64_t packets = 0;
    double p99_us = 0.0;
  };

  Window sample() {
    const telemetry::ShardSnapshot total =
        registry_->snapshot().aggregate();
    util::LogHistogram latency;
    for (const auto& [name, hist] : total.histograms) {
      if (name == "fastpath_cycles" || name == "slowpath_cycles") {
        latency.merge(hist);
      }
    }
    const util::LogHistogram delta = latency.since(prev_);
    prev_ = std::move(latency);
    Window window;
    window.packets = delta.count();
    if (window.packets > 0) {
      window.p99_us = util::CycleClock::to_us(
          static_cast<std::uint64_t>(delta.percentile(99.0)));
    }
    return window;
  }

 private:
  telemetry::Registry* registry_;
  util::LogHistogram prev_;
};

/// SLO calibration: a static single-shard run over the step trace. The
/// gateable SLO sits between the fast-path p99 and the slow-path median
/// (geometric mean), so surge windows breach it and warm windows meet it
/// on any machine.
struct Calibration {
  double fast_p99_us = 0.0;
  double slow_p50_us = 0.0;
  double slo_us = 0.0;
};

Calibration calibrate_once(const std::vector<net::Packet>& packets) {
  telemetry::Registry registry;
  auto prototype = make_chain();
  runtime::ShardedRuntime runtime{
      *prototype, 1, {platform::PlatformKind::kBess, true},
      kRingCapacity, &registry, "calib/"};
  runtime.run_packets(packets);
  const telemetry::ShardSnapshot total = registry.snapshot().aggregate();
  Calibration calib;
  for (const auto& [name, hist] : total.histograms) {
    if (name == "fastpath_cycles" && hist.count() > 0) {
      calib.fast_p99_us = util::CycleClock::to_us(
          static_cast<std::uint64_t>(hist.percentile(99.0)));
    } else if (name == "slowpath_cycles" && hist.count() > 0) {
      calib.slow_p50_us = util::CycleClock::to_us(
          static_cast<std::uint64_t>(hist.percentile(50.0)));
    }
  }
  calib.slo_us = std::sqrt(calib.fast_p99_us * calib.slow_p50_us);
  return calib;
}

Calibration calibrate(const std::vector<net::Packet>& packets) {
  // Warmup + best-of-2 (bench_method::TrialPolicy): a cold first run
  // inflates the fast-path p99 and with it the derived SLO, making the
  // surge gates flaky. Noise only ever adds cycles, so the cleanest
  // calibration is the one with the LOWEST fast-path p99.
  const TrialPolicy policy{/*warmup=*/1, /*trials=*/2};
  return best_of<Calibration>(
      policy, [&] { return calibrate_once(packets); },
      [](const Calibration& calib) { return -calib.fast_p99_us; });
}

control::AutoscaleConfig policy_config(double slo_us, std::size_t min_shards,
                                       std::size_t max_shards) {
  control::AutoscaleConfig config;
  config.slo_us = slo_us;
  config.min_shards = min_shards;
  config.max_shards = max_shards;
  config.interval_packets = kWindow;
  config.up_streak = 1;
  config.down_streak = 2;
  config.cooldown_windows = 1;
  // Latency-only policy: the queue/admission escalations depend on the
  // host's real dispatcher/worker speed ratio, which would make the gates
  // machine-dependent.
  config.occupancy_high = 2.0;
  config.admit_low = 0.0;
  return config;
}

bool check_conservation(const char* scenario,
                        const runtime::RunStats& stats) {
  const runtime::OverloadStats& overload = stats.overload;
  const bool arrivals_ok =
      overload.offered == overload.admitted + overload.shed_total();
  const bool admitted_ok =
      overload.offered == 0 || overload.admitted == stats.packets;
  const bool disjoint_ok = stats.packets >= stats.drops + overload.faulted;
  if (arrivals_ok && admitted_ok && disjoint_ok) return true;
  std::fprintf(stderr,
               "CONSERVATION VIOLATION (%s): offered=%llu admitted=%llu "
               "shed=%llu packets=%llu drops=%llu faulted=%llu\n",
               scenario,
               static_cast<unsigned long long>(overload.offered),
               static_cast<unsigned long long>(overload.admitted),
               static_cast<unsigned long long>(overload.shed_total()),
               static_cast<unsigned long long>(stats.packets),
               static_cast<unsigned long long>(stats.drops),
               static_cast<unsigned long long>(overload.faulted));
  return false;
}

struct SeriesPoint {
  std::uint64_t pushed = 0;
  std::size_t active_shards = 0;
  WindowProbe::Window window;
};

/// Run one scenario: controller-driven autoscaling with a window probe
/// riding the same scale hook (probe first, tick second).
struct ScenarioResult {
  runtime::ShardedRunResult run;
  std::vector<SeriesPoint> series;
  std::vector<control::ReshardReport> events;
  std::size_t final_active = 0;
  std::vector<std::size_t> leftover_flows;  // per retired shard
};

ScenarioResult run_scenario(const std::vector<net::Packet>& packets,
                            std::size_t start_shards,
                            const control::AutoscaleConfig& config,
                            bool overload_on) {
  telemetry::Registry registry;
  auto prototype = make_chain();
  runtime::ShardedRuntime runtime{
      *prototype, start_shards,
      {platform::PlatformKind::kBess, true}, kRingCapacity,
      &registry, "rt/"};
  if (overload_on) {
    // Overload machinery armed but balanced (arrivals at exactly the
    // drain rate, no degradation): the offered/admitted/shed counters are
    // live — so the conservation gates check real bookkeeping — while
    // shedding stays deterministically zero.
    runtime::OverloadConfig overload;
    overload.enabled = true;
    overload.offered_load = 1.0;
    overload.queue_capacity = 1024;
    overload.degrade_after = 0;
    runtime.set_overload_policy(overload);
  }
  control::Controller controller{config, registry};
  control::require_migratable(runtime.shard_chain(0));
  ScenarioResult result;
  WindowProbe probe{registry};
  runtime.set_scale_hook(
      [&](runtime::ShardedRuntime& rt) {
        // Drain in-flight packets so every sample is an exact
        // `interval_packets`-sized window regardless of how far the
        // dispatcher has run ahead of the workers on this host.
        rt.quiesce();
        SeriesPoint point;
        point.pushed = rt.pushed();
        point.window = probe.sample();
        controller.tick(rt);
        point.active_shards = rt.active_shard_count();
        result.series.push_back(point);
      },
      config.interval_packets);
  result.run = runtime.run_packets(packets);
  result.events = controller.scale_events();
  result.final_active = runtime.active_shard_count();
  for (std::size_t s = result.final_active; s < runtime.shard_count();
       ++s) {
    result.leftover_flows.push_back(
        runtime.shard_chain(s).classifier().active_tuples().size());
  }
  return result;
}

void print_series(const ScenarioResult& result) {
  std::printf("%10s %8s %10s %12s\n", "pushed", "shards", "win_pkts",
              "win_p99_us");
  for (const SeriesPoint& point : result.series) {
    std::printf("%10llu %8zu %10llu %12.3f\n",
                static_cast<unsigned long long>(point.pushed),
                point.active_shards,
                static_cast<unsigned long long>(point.window.packets),
                point.window.p99_us);
  }
}

telemetry::Json series_json(const ScenarioResult& result) {
  telemetry::Json series = telemetry::Json::array();
  for (const SeriesPoint& point : result.series) {
    telemetry::Json row = telemetry::Json::object();
    row.set("pushed", telemetry::Json::integer(point.pushed));
    row.set("active_shards",
            telemetry::Json::integer(point.active_shards));
    row.set("window_packets",
            telemetry::Json::integer(point.window.packets));
    row.set("window_p99_us", telemetry::Json::number(point.window.p99_us));
    series.push(std::move(row));
  }
  return series;
}

int run() {
  print_header("Autoscale sweep — elastic control plane, step load + "
               "ramp-down (DESIGN.md §10)");

  const std::vector<net::Packet> step_trace =
      make_step_trace(/*batches=*/6, /*flows_per_batch=*/32,
                      /*steady_windows=*/16);
  const Calibration calib = calibrate(step_trace);
  std::printf("calibration: fastpath p99 = %.3f us, slowpath p50 = %.3f "
              "us -> SLO = %.3f us\n\n",
              calib.fast_p99_us, calib.slow_p50_us, calib.slo_us);
  bool ok = true;
  if (!(calib.fast_p99_us < calib.slo_us &&
        calib.slo_us < calib.slow_p50_us)) {
    std::fprintf(stderr,
                 "GATE FAILED: calibration cannot separate fast and slow "
                 "path (fast p99 %.3f, slow p50 %.3f)\n",
                 calib.fast_p99_us, calib.slow_p50_us);
    ok = false;
  }

  BenchJson json{"autoscale"};
  json.param("window_packets", static_cast<double>(kWindow));
  json.param("max_shards", static_cast<double>(kMaxShards));
  json.param("slo_us", calib.slo_us);
  json.param("recovery_budget_packets",
             static_cast<double>(kBudgetWindows * kWindow));
  json.param("chain", "nat+maglev+monitor+ipfilter");

  // --- Step load: surge of new flows, scale up, recover under the SLO ---
  std::printf("step load: %zu packets, surge of 192 flows over 6 windows\n",
              step_trace.size());
  const ScenarioResult step = run_scenario(
      step_trace, 1, policy_config(calib.slo_us, 1, kMaxShards),
      /*overload_on=*/true);
  print_series(step);

  std::size_t scale_ups = 0;
  std::uint64_t migrated = 0;
  std::size_t last_up_tick = 0;
  for (const control::ReshardReport& event : step.events) {
    migrated += event.migrated_flows;
    if (event.to_shards > event.from_shards) ++scale_ups;
  }
  for (std::size_t i = 0; i < step.series.size(); ++i) {
    if (i > 0 &&
        step.series[i].active_shards > step.series[i - 1].active_shards) {
      last_up_tick = i;
    }
  }
  if (scale_ups == 0 || migrated == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: step load produced no scale-up/migration "
                 "(scale_ups=%zu migrated=%llu)\n",
                 scale_ups, static_cast<unsigned long long>(migrated));
    ok = false;
  }
  // Recovery: within the budget after the last scale-up, a non-empty
  // window meets the SLO — and the trace ends meeting it.
  std::size_t recovered_tick = 0;
  bool recovered = false;
  for (std::size_t i = last_up_tick + 1;
       i < step.series.size() && i <= last_up_tick + kBudgetWindows; ++i) {
    if (step.series[i].window.packets > 0 &&
        step.series[i].window.p99_us <= calib.slo_us) {
      recovered = true;
      recovered_tick = i;
      break;
    }
  }
  double final_p99 = 0.0;
  for (const SeriesPoint& point : step.series) {
    if (point.window.packets > 0) final_p99 = point.window.p99_us;
  }
  if (!recovered || final_p99 > calib.slo_us) {
    std::fprintf(stderr,
                 "GATE FAILED: p99 did not recover below the SLO within "
                 "%zu windows of the last scale-up (final window p99 "
                 "%.3f us, slo %.3f us)\n",
                 kBudgetWindows, final_p99, calib.slo_us);
    ok = false;
  }
  ok = check_conservation("step", step.run.stats) && ok;
  std::printf("step: scale_ups=%zu migrated_flows=%llu recovered at tick "
              "%zu/%zu (budget %zu), final p99 %.3f us vs slo %.3f us\n\n",
              scale_ups, static_cast<unsigned long long>(migrated),
              recovered_tick, last_up_tick, kBudgetWindows, final_p99,
              calib.slo_us);

  telemetry::Json step_row = telemetry::Json::object();
  step_row.set("config", telemetry::Json::string("step"));
  step_row.set("scale_ups", telemetry::Json::integer(scale_ups));
  step_row.set("migrated_flows", telemetry::Json::integer(migrated));
  step_row.set("final_shards", telemetry::Json::integer(step.final_active));
  step_row.set("final_window_p99_us", telemetry::Json::number(final_p99));
  step_row.set("recovered", telemetry::Json::boolean(recovered));
  step_row.set("packets", telemetry::Json::integer(step.run.stats.packets));
  step_row.set("drops", telemetry::Json::integer(step.run.stats.drops));
  step_row.set("series", series_json(step));
  json.add(std::move(step_row));

  // --- Ramp-down: calm traffic at 4 shards, scale to 1, lose nothing ---
  const std::vector<net::Packet> ramp_trace =
      make_step_trace(/*batches=*/2, /*flows_per_batch=*/48,
                      /*steady_windows=*/22);
  std::printf("ramp-down: %zu packets, steady warm traffic from 4 shards\n",
              ramp_trace.size());
  const ScenarioResult ramp = run_scenario(
      ramp_trace, kMaxShards, policy_config(1e9, 1, kMaxShards),
      /*overload_on=*/true);
  print_series(ramp);

  std::size_t scale_downs = 0;
  std::uint64_t ramp_migrated = 0;
  for (const control::ReshardReport& event : ramp.events) {
    ramp_migrated += event.migrated_flows;
    if (event.to_shards < event.from_shards) ++scale_downs;
  }
  if (ramp.final_active != 1 || scale_downs != kMaxShards - 1) {
    std::fprintf(stderr,
                 "GATE FAILED: ramp did not settle at min shards "
                 "(final=%zu scale_downs=%zu)\n",
                 ramp.final_active, scale_downs);
    ok = false;
  }
  // Scale-down must shed nothing: every pushed packet is delivered.
  const runtime::RunStats& ramp_stats = ramp.run.stats;
  if (ramp_stats.packets != ramp_trace.size() || ramp_stats.drops != 0 ||
      ramp_stats.overload.shed_total() != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: ramp shed or dropped packets "
                 "(packets=%llu/%zu drops=%llu shed=%llu)\n",
                 static_cast<unsigned long long>(ramp_stats.packets),
                 ramp_trace.size(),
                 static_cast<unsigned long long>(ramp_stats.drops),
                 static_cast<unsigned long long>(
                     ramp_stats.overload.shed_total()));
    ok = false;
  }
  for (std::size_t s = 0; s < ramp.leftover_flows.size(); ++s) {
    if (ramp.leftover_flows[s] != 0) {
      std::fprintf(stderr,
                   "GATE FAILED: retired shard %zu still holds %zu "
                   "flows\n",
                   ramp.final_active + s, ramp.leftover_flows[s]);
      ok = false;
    }
  }
  ok = check_conservation("ramp", ramp_stats) && ok;
  std::printf("ramp: scale_downs=%zu migrated_flows=%llu final_shards=%zu "
              "packets=%llu drops=%llu\n",
              scale_downs,
              static_cast<unsigned long long>(ramp_migrated),
              ramp.final_active,
              static_cast<unsigned long long>(ramp_stats.packets),
              static_cast<unsigned long long>(ramp_stats.drops));

  telemetry::Json ramp_row = telemetry::Json::object();
  ramp_row.set("config", telemetry::Json::string("ramp"));
  ramp_row.set("scale_downs", telemetry::Json::integer(scale_downs));
  ramp_row.set("migrated_flows",
               telemetry::Json::integer(ramp_migrated));
  ramp_row.set("final_shards",
               telemetry::Json::integer(ramp.final_active));
  ramp_row.set("packets", telemetry::Json::integer(ramp_stats.packets));
  ramp_row.set("drops", telemetry::Json::integer(ramp_stats.drops));
  ramp_row.set("series", series_json(ramp));
  json.add(std::move(ramp_row));

  json.write();
  std::printf("\nautoscale gates (recovery within budget, lossless "
              "scale-down, conservation): %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace speedybox::bench

int main() { return speedybox::bench::run(); }
