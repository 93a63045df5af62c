// bench_tenants — the multi-tenant isolation experiment (DESIGN.md §14,
// EXPERIMENTS.md "Tenant isolation").
//
// Two claims, both gated against the committed baseline as machine-
// portable ratios:
//
//   victim_isolation: tenant A runs the §VII-C gateway chain under a
//     steady uniform workload while tenant B syn-floods at 4x A's offered
//     load on the same host. A's SLO is set from its own solo run (4x the
//     solo p99, measured in the same invocation, so the target is
//     machine-relative).
//       rel_rate = hosted goodput rate / solo goodput rate      (~1.0)
//       rel_p99  = hosted p99 / SLO                             (< 1.0)
//     The p99 tolerance is derived so a candidate breaching the SLO
//     (rel_p99 > 1) always fails the gate, whatever the baseline sat at.
//
//   pair_efficiency: two well-behaved tenants share one pool.
//       rel_rate = hosted aggregate rate / back-to-back solo rate
//     Back-to-back (sum of packets over summed solo walls) is the ideal a
//     shared single host thread can reach; the tolerance floors the gate
//     at ~0.8x of it, so gate/arbiter/telemetry overhead stays bounded.
//
// All drives are in-process (TenantHost::run) — deterministic packet
// interleave, no sockets, same entry points the tenancy test suite uses.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "tenancy/tenant_host.hpp"

namespace speedybox::bench {
namespace {

tenancy::TenantSpec victim_spec(std::size_t flows,
                                std::uint32_t packets_per_flow) {
  tenancy::TenantSpec tenant;
  tenant.id = "victim";
  tenant.plan.chain = plan::vii_c_chain1();
  tenant.plan.executor = plan::ExecutorKind::kSharded;
  tenant.plan.shards = 2;
  tenant.plan.cycle_model = true;  // the rows report the modeled rate
  tenant.workload.kind = "uniform";
  tenant.workload.flows = flows;
  tenant.workload.packets_per_flow = packets_per_flow;
  tenant.workload.seed = 61;
  return tenant;
}

tenancy::TenantSpec flood_spec(std::size_t scenario_flows) {
  tenancy::TenantSpec tenant;
  tenant.id = "flood";
  tenant.plan.chain = plan::ChainSpec::parse("ipfilter,monitor");
  tenant.plan.executor = plan::ExecutorKind::kRunner;
  tenant.plan.cycle_model = true;
  tenant.slo_us = 1e9;  // the adversary never qualifies as a victim
  tenant.workload.kind = "syn-flood";
  tenant.workload.flows = scenario_flows;  // 0 = scenario default (3072)
  tenant.workload.seed = 62;
  return tenant;
}

struct SoloResult {
  double rate_mpps = 0.0;   // cycle-modeled fast-path rate
  double goodput = 0.0;     // delivered / offered
  double p99_us = 0.0;
  double wall_s = 0.0;
};

/// The tenant's plan and workload with no host around it — the baseline
/// every hosted ratio normalizes against.
SoloResult measure_solo(const tenancy::TenantSpec& spec) {
  plan::BuiltDeployment built = plan::build(spec.plan);
  const trace::Workload workload = spec.workload.build();
  const auto start = std::chrono::steady_clock::now();
  built.executor->run(workload);
  SoloResult solo;
  solo.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  const runtime::RunStats stats = built.executor->stats();
  solo.rate_mpps = stats.rate_mpps(spec.plan.platform);
  solo.goodput =
      stats.packets > 0
          ? static_cast<double>(stats.packets - stats.drops -
                                stats.overload.faulted) /
                static_cast<double>(stats.packets)
          : 0.0;
  solo.p99_us = percentile_us(stats.latency_cycles_all(), 99);
  return solo;
}

struct HostedResult {
  tenancy::HostRunResult run;
  double victim_rate_mpps = 0.0;
  double victim_goodput = 0.0;  // delivered / offered, gate shed included
  double victim_p99_us = 0.0;
};

HostedResult measure_adversarial(const tenancy::HostSpec& host_spec) {
  tenancy::TenantHost host{host_spec};
  HostedResult hosted;
  hosted.run = host.run();
  const tenancy::TenantResult& victim = hosted.run.tenants[0];
  hosted.victim_rate_mpps = victim.stats.rate_mpps(
      host_spec.tenants[0].plan.platform);
  hosted.victim_goodput =
      victim.offered > 0
          ? static_cast<double>(victim.delivered()) /
                static_cast<double>(victim.offered)
          : 0.0;
  hosted.victim_p99_us = percentile_us(victim.stats.latency_cycles_all(), 99);
  return hosted;
}

}  // namespace
}  // namespace speedybox::bench

int main(int argc, char** argv) {
  using namespace speedybox;
  using telemetry::Json;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t victim_flows = smoke ? 48 : 64;
  const std::uint32_t victim_packets = smoke ? 8 : 12;
  // syn-flood population chosen so the flood offers exactly 4.0x the
  // victim's packets (scenario: flows * 24 packets, 1:3 benign:attack).
  const std::size_t flood_flows = smoke ? 64 : 0;  // 1536 / 3072 packets
  bench::TrialPolicy policy;
  policy.warmup = 1;
  policy.trials = smoke ? 3 : 4;

  bench::print_header(
      "bench_tenants: per-tenant SLO isolation under an adversarial "
      "co-tenant (chain1_gateway victim, syn-flood aggressor at 4x)");

  const tenancy::TenantSpec victim = bench::victim_spec(
      victim_flows, victim_packets);
  const tenancy::TenantSpec flood = bench::flood_spec(flood_flows);
  const std::uint64_t victim_offered = victim.workload.build().packet_count();
  const std::uint64_t flood_offered = flood.workload.build().packet_count();
  const double flood_multiple =
      static_cast<double>(flood_offered) / static_cast<double>(victim_offered);

  // -- Solo baseline (best of N: interference only ever subtracts) -----------
  bench::SoloResult solo;
  std::vector<double> solo_rates;
  for (int warm = 0; warm < policy.warmup; ++warm) {
    bench::measure_solo(victim);
  }
  for (int trial = 0; trial < policy.trials; ++trial) {
    const bench::SoloResult candidate = bench::measure_solo(victim);
    solo_rates.push_back(candidate.rate_mpps);
    if (candidate.rate_mpps > solo.rate_mpps) solo = candidate;
  }
  const double slo_us = std::max(20.0, 4.0 * solo.p99_us);
  std::printf(
      "  victim solo: %8.3f Mpps  p99 %7.2f us  goodput %.4f  "
      "-> SLO %.2f us (4x solo p99)\n",
      solo.rate_mpps, solo.p99_us, solo.goodput, slo_us);

  // -- Hosted adversarial run ------------------------------------------------
  tenancy::HostSpec adversarial;
  adversarial.name = "isolation";
  adversarial.tenants = {victim, flood};
  adversarial.tenants[0].slo_us = slo_us;
  adversarial.enforcement.window_packets = 512;

  bench::HostedResult hosted;
  std::vector<double> hosted_rates;
  for (int warm = 0; warm < policy.warmup; ++warm) {
    bench::measure_adversarial(adversarial);
  }
  for (int trial = 0; trial < policy.trials; ++trial) {
    bench::HostedResult candidate = bench::measure_adversarial(adversarial);
    hosted_rates.push_back(candidate.victim_rate_mpps);
    if (candidate.victim_rate_mpps > hosted.victim_rate_mpps) {
      hosted = std::move(candidate);
    }
  }
  const tenancy::TenantResult& hosted_victim = hosted.run.tenants[0];
  const tenancy::TenantResult& hosted_flood = hosted.run.tenants[1];

  const double victim_goodput_rate =
      hosted.victim_rate_mpps * hosted.victim_goodput;
  const double solo_goodput_rate = solo.rate_mpps * solo.goodput;
  const double rel_rate =
      solo_goodput_rate > 0.0 ? victim_goodput_rate / solo_goodput_rate : 0.0;
  const double rel_p99 = slo_us > 0.0 ? hosted.victim_p99_us / slo_us : 0.0;

  const bench::TrialAggregate solo_spread =
      bench::aggregate_trials(solo_rates);
  const bench::TrialAggregate hosted_spread =
      bench::aggregate_trials(hosted_rates);
  const double rate_tolerance = std::max(
      0.10, 2.0 * (solo_spread.rel_spread + hosted_spread.rel_spread));
  // Any candidate breaching the SLO (rel_p99 > 1) must fail the gate,
  // whatever this baseline run measured; below that, latency noise passes.
  const double p99_tolerance =
      rel_p99 > 0.0
          ? std::clamp(1.0 / rel_p99 - 1.0, 0.25, 4.0)
          : 4.0;

  std::printf(
      "  victim hosted (flood at %.1fx): %8.3f Mpps  p99 %7.2f us  "
      "goodput %.4f\n",
      flood_multiple, hosted.victim_rate_mpps, hosted.victim_p99_us,
      hosted.victim_goodput);
  std::printf(
      "    rel_rate %.3f (tolerance %.0f%%)   rel_p99 %.3f of SLO "
      "(tolerance %.0f%%)\n",
      rel_rate, rate_tolerance * 100.0, rel_p99, p99_tolerance * 100.0);
  std::printf(
      "    victim gate shed %llu   flood gate shed %llu, escalation L%d\n",
      static_cast<unsigned long long>(hosted_victim.gate_shed),
      static_cast<unsigned long long>(hosted_flood.gate_shed),
      hosted_flood.max_escalation);

  // -- Pair efficiency: two polite tenants on one pool -----------------------
  tenancy::TenantSpec alpha = bench::victim_spec(
      smoke ? 40 : 64, smoke ? 8 : 10);
  alpha.id = "alpha";
  alpha.workload.seed = 71;
  tenancy::TenantSpec bravo = alpha;
  bravo.id = "bravo";
  bravo.workload.seed = 72;
  alpha.plan.shards = 1;
  bravo.plan.shards = 1;

  tenancy::HostSpec pair;
  pair.name = "pair";
  pair.tenants = {alpha, bravo};

  const double pair_packets = static_cast<double>(
      alpha.workload.build().packet_count() +
      bravo.workload.build().packet_count());
  double best_pair_rate = 0.0;
  double best_back_to_back = 0.0;
  std::vector<double> pair_ratios;
  for (int trial = 0; trial < policy.warmup + policy.trials; ++trial) {
    const bench::SoloResult solo_alpha = bench::measure_solo(alpha);
    const bench::SoloResult solo_bravo = bench::measure_solo(bravo);
    tenancy::TenantHost host{pair};
    const tenancy::HostRunResult run = host.run();
    if (trial < policy.warmup) continue;
    const double hosted_rate =
        run.wall_seconds > 0.0 ? pair_packets / run.wall_seconds / 1e6 : 0.0;
    const double back_to_back =
        pair_packets / (solo_alpha.wall_s + solo_bravo.wall_s) / 1e6;
    pair_ratios.push_back(
        back_to_back > 0.0 ? hosted_rate / back_to_back : 0.0);
    best_pair_rate = std::max(best_pair_rate, hosted_rate);
    best_back_to_back = std::max(best_back_to_back, back_to_back);
  }
  const double pair_efficiency =
      best_back_to_back > 0.0 ? best_pair_rate / best_back_to_back : 0.0;
  const bench::TrialAggregate pair_spread =
      bench::aggregate_trials(pair_ratios);
  // The ISSUE floor: hosting two polite tenants must keep >= ~0.8x of the
  // back-to-back ideal; widen only when this box is noisier than that.
  const double pair_tolerance =
      std::max(0.20, 2.0 * pair_spread.rel_spread);
  std::printf(
      "  pair hosted %8.3f Mpps vs back-to-back %8.3f Mpps  "
      "efficiency %.3f (tolerance %.0f%%)\n",
      best_pair_rate, best_back_to_back, pair_efficiency,
      pair_tolerance * 100.0);

  // -- BENCH_tenants.json ----------------------------------------------------
  bench::BenchJson json{"tenants"};
  json.param("victim_flows", static_cast<double>(victim_flows));
  json.param("victim_packets_per_flow",
             static_cast<double>(victim_packets));
  json.param("flood_multiple", flood_multiple);
  json.param("slo_multiple_of_solo_p99", 4.0);
  json.param("trials", static_cast<double>(policy.trials));

  Json victim_row = Json::object();
  victim_row.set("config", Json::string("victim_isolation"));
  victim_row.set("chain", Json::string(victim.plan.chain.name));
  victim_row.set("workload", Json::string("uniform-vs-synflood"));
  victim_row.set("platform", Json::string("bess"));
  victim_row.set("rel_rate", Json::number(rel_rate));
  victim_row.set("tolerance_rel_rate", Json::number(rate_tolerance));
  victim_row.set("rel_p99", Json::number(rel_p99));
  victim_row.set("tolerance_rel_p99", Json::number(p99_tolerance));
  victim_row.set("rate_mpps", Json::number(hosted.victim_rate_mpps));
  victim_row.set("latency_us_p99", Json::number(hosted.victim_p99_us));
  victim_row.set("slo_us", Json::number(slo_us));
  victim_row.set("solo_p99_us", Json::number(solo.p99_us));
  victim_row.set("goodput", Json::number(hosted.victim_goodput));
  victim_row.set("offered", Json::integer(hosted_victim.offered));
  victim_row.set("admitted", Json::integer(hosted_victim.forwarded));
  victim_row.set("shed", Json::integer(hosted_victim.gate_shed));
  json.add(std::move(victim_row));

  Json flood_row = Json::object();
  flood_row.set("config", Json::string("flood"));
  flood_row.set("chain", Json::string(flood.plan.chain.name));
  flood_row.set("workload", Json::string("syn-flood"));
  flood_row.set("platform", Json::string("bess"));
  flood_row.set("gated", Json::boolean(false));
  flood_row.set("offered", Json::integer(hosted_flood.offered));
  flood_row.set("admitted", Json::integer(hosted_flood.forwarded));
  flood_row.set("shed", Json::integer(hosted_flood.gate_shed));
  flood_row.set("max_escalation",
                Json::integer(static_cast<std::uint64_t>(
                    hosted_flood.max_escalation)));
  json.add(std::move(flood_row));

  Json pair_row = Json::object();
  pair_row.set("config", Json::string("pair_efficiency"));
  pair_row.set("chain", Json::string(alpha.plan.chain.name));
  pair_row.set("workload", Json::string("uniform+uniform"));
  pair_row.set("platform", Json::string("bess"));
  pair_row.set("rel_rate", Json::number(pair_efficiency));
  pair_row.set("tolerance_rel_rate", Json::number(pair_tolerance));
  pair_row.set("rel_p99_unstable", Json::boolean(true));
  pair_row.set("rate_mpps", Json::number(best_pair_rate));
  pair_row.set("rel_rate_spread", Json::number(pair_spread.rel_spread));
  json.add(std::move(pair_row));

  json.write();
  return 0;
}
