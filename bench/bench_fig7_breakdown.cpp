// Figure 7: latency reduction of the Snort + Monitor chain, and how much
// each optimization contributes.
//
// Single-run ablation: every fast-path packet is accounted twice — once
// with state functions sequential (header-action consolidation only) and
// once with the Table-I parallel schedule (both optimizations) — so the
// split is free of cross-run noise. The HA share of the total reduction is
// (orig − sbox_sequential); the SF share is (sbox_sequential − sbox).
//
// Expected shape (paper): ~36% total latency reduction on BESS, split
// roughly 49% HA / 51% SF; on ONVM the SF share is larger (~59%) because
// inter-core hops dilute the HA gains. The HA/SF split shifts with payload
// size (state-function weight), so the bench sweeps two packet sizes.
#include "runtime/plan.hpp"
#include "trace/payload_synth.hpp"

#include "bench_util.hpp"

namespace speedybox::bench {
namespace {

void run_for_payload(BenchJson& json, std::size_t payload_size) {
  trace::Workload workload = trace::make_uniform_workload(
      /*flow_count=*/64, /*packets_per_flow=*/400, payload_size);
  trace::PayloadSynthConfig synth;
  synth.match_fraction = 0.2;
  plant_rule_contents(workload, trace::default_snort_rules(), synth);

  const ChainFactory factory = [] {
    return plan::build_chain(
        plan::ChainSpec::parse("snort,monitor:heavy", "snort_monitor"));
  };

  std::printf("\n-- payload %zu B --\n", payload_size);
  std::printf("%-10s %12s %12s %11s | %9s %9s\n", "", "Orig lat",
              "SBox lat", "reduction", "HA share", "SF share");
  for (const auto platform :
       {platform::PlatformKind::kBess, platform::PlatformKind::kOnvm}) {
    const ConfigResult original =
        run_config(factory, platform, /*speedybox=*/false, workload);
    const ConfigResult speedy =
        run_config(factory, platform, /*speedybox=*/true, workload);

    const double orig = original.sub_latency_us;
    const double both = speedy.sub_latency_us;
    const double ha_only =
        percentile_us(speedy.stats.latency_cycles_subsequent_sequential, 50);
    const double total_saving = orig - both;
    const double ha_saving = orig - ha_only;
    const double sf_saving = ha_only - both;
    {
      telemetry::Json row = config_row(
          std::string(platform_name(platform)) + "/speedybox", speedy);
      row.set("payload", telemetry::Json::integer(payload_size));
      row.set("orig_latency_us", telemetry::Json::number(orig));
      row.set("ha_only_latency_us", telemetry::Json::number(ha_only));
      row.set("reduction_pct",
              telemetry::Json::number(reduction_pct(orig, both)));
      row.set("ha_share_pct",
              telemetry::Json::number(
                  total_saving > 0 ? ha_saving / total_saving * 100 : 0));
      row.set("sf_share_pct",
              telemetry::Json::number(
                  total_saving > 0 ? sf_saving / total_saving * 100 : 0));
      json.add(std::move(row));
    }
    std::printf("%-10s %9.3f us %9.3f us %10.1f%% | %8.1f%% %8.1f%%\n",
                platform_name(platform), orig, both,
                reduction_pct(orig, both),
                total_saving > 0 ? ha_saving / total_saving * 100 : 0,
                total_saving > 0 ? sf_saving / total_saving * 100 : 0);
  }
}

void run() {
  print_header(
      "Figure 7: latency reduction breakdown of Snort + Monitor (HA = header "
      "action consolidation, SF = state function parallelism)");
  BenchJson json{"fig7_breakdown"};
  json.param("flows", 64);
  json.param("packets_per_flow", 400);
  run_for_payload(json, 18);   // 64B-frame class: HA dominates
  run_for_payload(json, 192);  // larger payloads: SF parallelism dominates
  json.write();
  std::printf("\n");
}

}  // namespace
}  // namespace speedybox::bench

int main() {
  speedybox::bench::run();
  return 0;
}
