// Overload sweep: offered load at 0.5x..4x the data path's capacity, under
// each drop policy (DESIGN.md §9).
//
// The virtual ingress queue adds the modeled queueing delay to every
// admitted packet's latency, so an unbounded queue would show unbounded
// p99; the watermark gate bounds the queue, and the policies differ in WHO
// pays for that bound:
//
//   tail-drop       every arrival sheds while pressured — throughput holds
//                   but every surviving flow has holes.
//   per-flow-fair   a hash band of flows sheds entirely — fewer flows, each
//                   complete (goodput).
//   slo-early-drop  flows whose consolidated rule already says "drop" shed
//                   at ingress for near-zero cycles, before healthy traffic
//                   is touched.
//
// The chain is the paper's §VII-C inspection chain with a MATCHING ACL
// prefix, so a fraction of flows consolidate to a pure-drop rule and give
// slo-early-drop something to shed. Every cell checks the conservation
// invariant exactly:
//
//   offered == admitted + shed,  admitted == delivered + drops + faulted
//
// Output: the printed table plus BENCH_overload.json (p50/p99 latency and
// goodput per policy per multiplier).
#include "runtime/plan.hpp"
#include "trace/payload_synth.hpp"

#include "bench_util.hpp"

namespace speedybox::bench {
namespace {

struct Cell {
  double multiplier;
  runtime::DropPolicy policy;
  ConfigResult result;
  double goodput = 0;  // delivered / offered
};

bool check_conservation(const Cell& cell) {
  const runtime::RunStats& stats = cell.result.stats;
  const runtime::OverloadStats& overload = stats.overload;
  const bool arrivals_ok =
      overload.offered == overload.admitted + overload.shed_total();
  const bool admitted_ok = overload.admitted == stats.packets;
  // delivered = packets - drops - faulted; all three are counted
  // disjointly, so >= 0 is implied if the counters are consistent.
  const bool disjoint_ok = stats.packets >= stats.drops + overload.faulted;
  if (arrivals_ok && admitted_ok && disjoint_ok) return true;
  std::fprintf(stderr,
               "CONSERVATION VIOLATION at %.1fx/%s: offered=%llu "
               "admitted=%llu shed=%llu packets=%llu drops=%llu "
               "faulted=%llu\n",
               cell.multiplier,
               std::string(drop_policy_name(cell.policy)).c_str(),
               static_cast<unsigned long long>(overload.offered),
               static_cast<unsigned long long>(overload.admitted),
               static_cast<unsigned long long>(overload.shed_total()),
               static_cast<unsigned long long>(stats.packets),
               static_cast<unsigned long long>(stats.drops),
               static_cast<unsigned long long>(overload.faulted));
  return false;
}

int run() {
  print_header("Overload sweep — bounded-queue backpressure and drop "
               "policies (DESIGN.md §9)");

  trace::DatacenterWorkloadConfig workload_config;
  workload_config.flow_count = 150;
  workload_config.payload_size = 64;
  workload_config.flow_size_mu = 3.0;
  workload_config.seed = 20190712;
  trace::Workload workload = make_datacenter_workload(workload_config);
  trace::PayloadSynthConfig synth;
  synth.match_fraction = 0.2;
  plant_rule_contents(workload, trace::default_snort_rules(), synth);

  // §VII-C inspection chain whose ACL MATCHES part of the workload (dst
  // 10.1.3/24, ahead of the usual non-matching blacklist): matched flows
  // consolidate to early-drop rules — the slo-early-drop shed population.
  const ChainFactory chain = [] {
    return plan::build_chain(plan::ChainSpec::parse(
        "ipfilter:drop-dst-prefix=10.1.3.0/24:blacklist=16,"
        "snort,monitor:heavy",
        "overload-chain"));
  };

  BenchJson json{"overload"};
  json.param("workload", "datacenter");
  json.param("flows", static_cast<double>(workload_config.flow_count));
  json.param("packets", static_cast<double>(workload.packet_count()));
  json.param("chain", "ipfilter(drop 10.1.3/24)+snort+monitor");
  json.param("queue_capacity", 512.0);

  const double multipliers[] = {0.5, 1.0, 2.0, 4.0};
  const runtime::DropPolicy policies[] = {
      runtime::DropPolicy::kTailDrop,
      runtime::DropPolicy::kPerFlowFair,
      runtime::DropPolicy::kSloEarlyDrop,
  };

  // Warmup + best-of-2 per cell (bench_method::TrialPolicy): the latency
  // percentiles in each row come from a warm run, never the cold first
  // trial. Counters (admitted/shed splits) are deterministic across
  // trials — only the timing-derived columns needed the discipline.
  const TrialPolicy policy_trials{/*warmup=*/1, /*trials=*/2};

  // Baseline: overload control OFF — the zero-cost default path the sweep
  // rows are compared against.
  const ConfigResult baseline =
      run_config_best(policy_trials, chain, platform::PlatformKind::kBess,
                      true, workload);
  std::printf("baseline (overload off): packets=%llu lat p50/p99 = "
              "%.3f/%.3f us\n\n",
              static_cast<unsigned long long>(baseline.stats.packets),
              percentile_us(baseline.stats.latency_cycles_subsequent, 50),
              percentile_us(baseline.stats.latency_cycles_subsequent, 99));
  json.config("baseline/off", baseline);

  std::printf("%-5s %-15s %10s %10s %12s %12s %9s  %s\n", "load", "policy",
              "admitted", "shed", "lat_p50_us", "lat_p99_us", "goodput",
              "(shed wm/early)");
  bool conserved = true;
  for (const double multiplier : multipliers) {
    for (const runtime::DropPolicy policy : policies) {
      runtime::OverloadConfig overload;
      overload.enabled = true;
      overload.offered_load = multiplier;
      overload.policy = policy;
      overload.queue_capacity = 512;

      Cell cell{multiplier, policy,
                run_config_best(policy_trials, chain,
                                platform::PlatformKind::kBess, true,
                                workload, net::kDefaultBatchSize,
                                overload)};
      const runtime::RunStats& stats = cell.result.stats;
      const runtime::OverloadStats& counters = stats.overload;
      const std::uint64_t delivered =
          stats.packets - stats.drops - counters.faulted;
      cell.goodput = counters.offered > 0
                         ? static_cast<double>(delivered) /
                               static_cast<double>(counters.offered)
                         : 0.0;
      conserved = check_conservation(cell) && conserved;

      const double p50 = percentile_us(stats.latency_cycles_subsequent, 50);
      const double p99 = percentile_us(stats.latency_cycles_subsequent, 99);
      const std::string policy_name{drop_policy_name(policy)};
      std::printf("%-5.1f %-15s %10llu %10llu %12.3f %12.3f %8.1f%%  "
                  "(%llu/%llu)\n",
                  multiplier, policy_name.c_str(),
                  static_cast<unsigned long long>(counters.admitted),
                  static_cast<unsigned long long>(counters.shed_total()),
                  p50, p99, cell.goodput * 100.0,
                  static_cast<unsigned long long>(counters.shed_watermark),
                  static_cast<unsigned long long>(
                      counters.shed_early_drop));

      telemetry::Json row = config_row(
          "x" + std::to_string(multiplier).substr(0, 3) + "/" + policy_name,
          cell.result);
      row.set("offered_multiplier", telemetry::Json::number(multiplier));
      row.set("policy", telemetry::Json::string(policy_name));
      row.set("goodput", telemetry::Json::number(cell.goodput));
      row.set("shed_watermark",
              telemetry::Json::integer(counters.shed_watermark));
      row.set("shed_early_drop",
              telemetry::Json::integer(counters.shed_early_drop));
      row.set("degraded_flows",
              telemetry::Json::integer(counters.degraded_flows));
      json.add(std::move(row));
    }
  }
  json.write();
  std::printf("\nconservation (offered == admitted + shed, admitted == "
              "delivered + drops + faulted): %s\n",
              conserved ? "OK" : "VIOLATED");
  return conserved ? 0 : 1;
}

}  // namespace
}  // namespace speedybox::bench

int main() { return speedybox::bench::run(); }
