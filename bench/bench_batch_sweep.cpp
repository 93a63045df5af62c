// Batch-size sweep on the Snort + Monitor chain (DESIGN.md §8).
//
// Runs the same workload at every burst size in {1, 2, 4, 8, 16, 32, 64,
// 128}, original and SpeedyBox, and reports fast-path cycles per packet and
// the modeled rate. Results are bit-identical across batch sizes (the
// equivalence harness proves it); what the sweep shows is the amortization:
// the batched classifier pass spreads one timer pair over the whole
// segment, and prefetching warms MAT buckets / sketch rows / ACL rules
// ahead of the per-packet stateful passes. Expected shape: measured
// cycles/packet fall monotonically-ish with batch size and flatten past the
// point where per-packet dispatch overhead stops dominating; batch=32
// fast-path throughput must sit strictly above batch=1.
#include "runtime/plan.hpp"
#include "trace/payload_synth.hpp"

#include "bench_util.hpp"

namespace speedybox::bench {
namespace {

void run() {
  print_header("Batch sweep: Snort + Monitor, burst size 1..128");
  BenchJson json{"batch_sweep"};
  json.param("flows", 64);
  json.param("packets_per_flow", 400);
  json.param("payload", 192);

  trace::Workload workload = trace::make_uniform_workload(
      /*flow_count=*/64, /*packets_per_flow=*/400, /*payload_size=*/192);
  trace::PayloadSynthConfig synth;
  synth.match_fraction = 0.2;
  plant_rule_contents(workload, trace::default_snort_rules(), synth);

  const ChainFactory factory = [] {
    return plan::build_chain(
        plan::ChainSpec::parse("snort,monitor:heavy", "snort_monitor"));
  };

  // Warmup + best-of-3 per configuration (bench_method::TrialPolicy):
  // scheduler noise only ever ADDS cycles (lowering the rate), so the max
  // rate across measured repetitions is the cleanest view of the
  // deterministic amortization difference between batch sizes — and the
  // warmup run keeps the cold first trial out of the measurement.
  const TrialPolicy policy{/*warmup=*/1, /*trials=*/3};
  const auto best = [&](bool speedybox, std::size_t batch) {
    return run_config_best(policy, factory, platform::PlatformKind::kBess,
                           speedybox, workload, batch);
  };

  std::printf("%8s | %16s %12s | %16s %12s\n", "batch", "Orig cyc/pkt",
              "Orig Mpps", "SBox cyc/pkt", "SBox Mpps");
  double rate_batch1 = 0.0;
  double rate_batch32 = 0.0;
  for (const std::size_t batch : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const ConfigResult original = best(false, batch);
    const ConfigResult speedy = best(true, batch);
    for (const auto& [mode, result] :
         {std::pair<const char*, const ConfigResult&>{"original", original},
          {"speedybox", speedy}}) {
      telemetry::Json row = config_row("bess/" + std::string(mode), result);
      row.set("batch_size", telemetry::Json::integer(batch));
      json.add(std::move(row));
    }
    std::printf("%8zu | %16.0f %12.3f | %16.0f %12.3f\n", batch,
                original.sub_cycles, original.rate_mpps, speedy.sub_cycles,
                speedy.rate_mpps);
    if (batch == 1) rate_batch1 = speedy.rate_mpps;
    if (batch == 32) rate_batch32 = speedy.rate_mpps;
  }
  json.write();

  std::printf("\nSpeedyBox fast-path rate: batch=1 %.3f Mpps, batch=32 "
              "%.3f Mpps (%+.1f%%)\n",
              rate_batch1, rate_batch32,
              rate_batch1 > 0
                  ? (rate_batch32 - rate_batch1) / rate_batch1 * 100.0
                  : 0.0);
  if (rate_batch32 <= rate_batch1) {
    std::fprintf(stderr,
                 "FAIL: batch=32 fast-path rate (%.3f Mpps) is not above "
                 "batch=1 (%.3f Mpps)\n",
                 rate_batch32, rate_batch1);
    std::exit(1);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace speedybox::bench

int main() {
  speedybox::bench::run();
  return 0;
}
