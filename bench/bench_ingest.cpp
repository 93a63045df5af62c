// bench_ingest — live loopback ingestion throughput and front-end latency
// (DESIGN.md §11). Each trial runs the SAME workload twice per round:
//
//   inproc:  materialize + ChainRunner::run()      (the trace:: drive)
//   live:    loadgen preload -> IngestServer.serve (real UDP datagrams)
//
// and gates on rel_rate = live ingest rate / in-process drive rate, a
// host-independent ratio: both sides move together when the machine is
// slow, so the baseline survives container reshuffles. The live rate uses
// IngestStats.drive_seconds (serve() entry to last wire activity — the
// idle-timeout tail excluded), and the UDP rounds are deterministic: every
// datagram is preloaded into the receive buffer before serve() starts, so
// there is no sender thread competing for the core and no kernel drop
// ambiguity in the denominator.
//
// The front-end latency (recv -> batch hand-off, the ingest_cycles
// telemetry histogram) is reported informationally; its tail is scheduler
// noise on a shared box, so the row carries rel_p99_unstable and the gate
// checks rate only, with a tolerance derived from the measured trial
// spread (bench_method::aggregate_trials).
#include <cstdio>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_method.hpp"
#include "bench_util.hpp"
#include "io/ingest_server.hpp"
#include "io/loadgen.hpp"
#include "runtime/plan.hpp"
#include "runtime/runner.hpp"
#include "telemetry/metrics.hpp"
#include "trace/workload.hpp"
#include "util/cycle_clock.hpp"
#include "util/histogram.hpp"

using namespace speedybox;

namespace {

/// §VII-C Chain 1 — the same chain the closed-loop equivalence suite uses,
/// built from the canonical registry-backed spec.
std::unique_ptr<runtime::ServiceChain> chain1_gateway() {
  return plan::build_chain(plan::vii_c_chain1());
}

runtime::RunConfig speedybox_run_config() {
  runtime::RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = 32;
  return config;
}

struct TrialResult {
  double live_mpps = 0.0;
  double inproc_mpps = 0.0;
  double rel_rate = 0.0;
  double ingest_p50_us = 0.0;
  double ingest_p99_us = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t socket_drops = 0;
  std::uint64_t parse_errors = 0;
  bool conserved = true;
};

/// One measured trial: `rounds` preload/serve rounds (fresh chain + server
/// each round; rates aggregate over the whole trial so short rounds do not
/// amplify timer noise).
TrialResult run_trial(std::size_t rounds, std::size_t flows) {
  telemetry::Registry registry;
  TrialResult result;
  double busy_s = 0.0;
  double inproc_s = 0.0;
  std::uint64_t inproc_packets = 0;
  std::uint64_t sent = 0;

  for (std::size_t round = 0; round < rounds; ++round) {
    trace::DatacenterWorkloadConfig workload_config;
    workload_config.flow_count = flows;
    workload_config.seed = 0xB13C + round;
    const trace::Workload workload = make_datacenter_workload(workload_config);

    {
      // In-process reference drive of the identical packet sequence.
      const auto chain = chain1_gateway();
      runtime::ChainRunner runner{*chain, speedybox_run_config()};
      std::vector<net::Packet> packets;
      packets.reserve(workload.packet_count());
      for (std::size_t i = 0; i < workload.packet_count(); ++i) {
        packets.push_back(workload.materialize(i));
      }
      const auto start = std::chrono::steady_clock::now();
      runner.run(packets, nullptr);
      inproc_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      inproc_packets += packets.size();
    }

    {
      // Live drive: preload every datagram, then serve single-threaded.
      const auto chain = chain1_gateway();
      runtime::ChainRunner runner{*chain, speedybox_run_config()};
      io::IngestConfig config;
      config.idle_timeout_ms = 50;
      io::IngestServer server{config};
      server.attach_telemetry(&registry, "bench/ingest");
      io::LoadgenConfig gen;
      gen.ports = {server.udp_port()};
      const io::LoadgenReport report = replay_workload(workload, gen).front();
      const io::IngestStats stats = server.serve(runner);
      const std::uint64_t ran = runner.drain(nullptr).packets;
      sent += report.sent;
      result.frames += stats.rx_frames;
      result.socket_drops += stats.socket_drops;
      result.parse_errors += stats.parse_errors;
      busy_s += stats.drive_seconds;
      // The CI smoke's identity, gate off, from the sender's and the
      // executor's counts: sent == packets run + errors + kernel drops. A
      // violation means the front-end lost frames.
      if (report.sent != ran + stats.parse_errors + stats.socket_drops) {
        result.conserved = false;
      }
    }
  }

  result.live_mpps = busy_s > 0.0 ? result.frames / busy_s / 1e6 : 0.0;
  result.inproc_mpps =
      inproc_s > 0.0 ? inproc_packets / inproc_s / 1e6 : 0.0;
  result.rel_rate =
      result.inproc_mpps > 0.0 ? result.live_mpps / result.inproc_mpps : 0.0;
  if (sent != result.frames + result.parse_errors + result.socket_drops) {
    result.conserved = false;
  }

  const telemetry::ShardSnapshot total = registry.snapshot().aggregate();
  for (const auto& [name, hist] : total.histograms) {
    if (name == "ingest_cycles" && hist.count() > 0) {
      const double us_per_cycle =
          1e6 / util::CycleClock::frequency_hz();
      result.ingest_p50_us = hist.percentile(50) * us_per_cycle;
      result.ingest_p99_us = hist.percentile(99) * us_per_cycle;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t rounds = smoke ? 2 : 6;
  const std::size_t flows = smoke ? 40 : 120;
  bench::TrialPolicy policy;
  policy.warmup = 1;
  policy.trials = smoke ? 2 : 3;

  bench::print_header(
      "bench_ingest: live loopback UDP ingestion vs in-process drive "
      "(chain1_gateway, datacenter workload)");

  std::vector<double> rel_scores;
  const TrialResult best = bench::best_of<TrialResult>(
      policy, [&] { return run_trial(rounds, flows); },
      [](const TrialResult& trial) { return trial.rel_rate; }, &rel_scores);
  const bench::TrialAggregate spread = bench::aggregate_trials(rel_scores);
  // Loopback sockets on a shared core are noisier than the pure in-memory
  // benches: floor the self-measured tolerance at 25%.
  const double tolerance =
      std::max(0.25, 2.0 * spread.rel_spread);

  std::printf(
      "  live ingest    %8.3f Mpps  (%llu frames, %llu kernel drops, "
      "%llu parse errors)\n",
      best.live_mpps, static_cast<unsigned long long>(best.frames),
      static_cast<unsigned long long>(best.socket_drops),
      static_cast<unsigned long long>(best.parse_errors));
  std::printf("  in-process     %8.3f Mpps\n", best.inproc_mpps);
  std::printf("  rel_rate       %8.3f  (spread %.1f%%, gate tolerance %.0f%%)\n",
              best.rel_rate, spread.rel_spread * 100.0, tolerance * 100.0);
  std::printf("  ingest latency p50 %.2f us  p99 %.2f us  (recv -> hand-off)\n",
              best.ingest_p50_us, best.ingest_p99_us);
  std::printf("  conservation   %s\n", best.conserved ? "ok" : "VIOLATED");

  using telemetry::Json;
  bench::BenchJson json{"ingest"};
  json.param("rounds", static_cast<double>(rounds));
  json.param("flows", static_cast<double>(flows));
  json.param("trials", static_cast<double>(policy.trials));
  json.param("workload", "datacenter");
  json.environment(bench::environment_json(0, 32));

  Json live = Json::object();
  live.set("config", Json::string("live/udp"));
  live.set("chain", Json::string("chain1_gateway"));
  live.set("workload", Json::string("datacenter"));
  live.set("platform", Json::string("bess"));
  live.set("rel_rate", Json::number(best.rel_rate));
  live.set("tolerance_rel_rate", Json::number(tolerance));
  // The front-end latency tail is scheduler noise on a shared box —
  // report it, do not gate on it (suppresses the absolute fallback too).
  live.set("rel_p99_unstable", Json::boolean(true));
  live.set("rate_mpps", Json::number(best.live_mpps));
  live.set("ingest_latency_us_p50", Json::number(best.ingest_p50_us));
  live.set("ingest_latency_us_p99", Json::number(best.ingest_p99_us));
  live.set("packets", Json::integer(best.frames));
  live.set("socket_drops", Json::integer(best.socket_drops));
  live.set("parse_errors", Json::integer(best.parse_errors));
  live.set("conserved", Json::boolean(best.conserved));
  live.set("rel_rate_spread", Json::number(spread.rel_spread));
  json.add(std::move(live));

  Json inproc = Json::object();
  inproc.set("config", Json::string("inproc/reference"));
  inproc.set("chain", Json::string("chain1_gateway"));
  inproc.set("workload", Json::string("datacenter"));
  inproc.set("platform", Json::string("bess"));
  inproc.set("rate_mpps", Json::number(best.inproc_mpps));
  inproc.set("gated", Json::boolean(false));
  json.add(std::move(inproc));

  json.write();
  return best.conserved ? 0 : 1;
}
