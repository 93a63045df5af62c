// Sharding scaling: throughput of the flow-sharded runtime as the shard
// count grows (1, 2, 4, 8 replicas of the full consolidated pipeline).
//
// The paper's prototype pins the ONVM NF Manager — and with it the whole
// consolidated fast path — to a single core (§VI-A). RSS-style flow
// sharding lifts that cap: each shard owns a complete chain replica and
// serves the flows whose symmetric five-tuple hashes to it.
//
// Two numbers per shard count:
//   * aggregate rate — sum of the per-shard modeled steady-state rates
//     (capacity of the sharded deployment; scales with shard count as long
//     as the flow hash spreads load evenly),
//   * wall time — real elapsed dispatch-to-join time. Only speeds up with
//     physical cores to run the workers on; on a single-core host the
//     shards time-slice and wall time stays flat or degrades slightly.
//
// Also prints the per-shard packet split so hash skew is visible.
#include <thread>

#include "runtime/plan.hpp"
#include "runtime/sharded_runtime.hpp"

#include "bench_util.hpp"

namespace speedybox::bench {
namespace {

void run() {
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 300;
  config.payload_size = 256;
  config.flow_size_mu = 3.0;
  config.seed = 20190710;
  const trace::Workload workload = make_datacenter_workload(config);

  const auto prototype_ptr = plan::build_chain(plan::vii_c_chain1_heavy());
  runtime::ServiceChain& prototype = *prototype_ptr;

  print_header(
      "Sharding scaling — Chain 1 replicated across N flow shards");
  std::printf("host cores: %u (wall time only improves with real cores;\n"
              "aggregate rate reflects per-shard capacity either way)\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-7s %12s %12s %10s   %s\n", "shards", "agg rate", "wall",
              "backpress", "per-shard packets");
  std::printf("%-7s %12s %12s %10s\n", "", "(Mpps)", "(ms)", "(waits)");

  BenchJson json{"sharding_scaling"};
  json.param("flows", 300);
  json.param("workload", "datacenter");
  json.param("chain", "nat,maglev,monitor,ipfilter");
  double base_rate = 0.0;
  runtime::RunConfig run{platform::PlatformKind::kOnvm, true};
  run.cycle_model = true;  // the aggregate rate is the model's
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    runtime::ShardedRuntime runtime{prototype, shards, run};
    runtime.run(workload);
    const runtime::ShardedRunResult& result = runtime.last_result();
    if (shards == 1) base_rate = result.aggregate_rate_mpps;

    {
      using telemetry::Json;
      Json row = Json::object();
      row.set("config", Json::string("onvm/speedybox x" +
                                     std::to_string(shards)));
      row.set("shards", Json::integer(shards));
      row.set("aggregate_rate_mpps",
              Json::number(result.aggregate_rate_mpps));
      row.set("wall_ms", Json::number(result.wall_seconds * 1e3));
      row.set("backpressure_waits",
              Json::integer(runtime.backpressure_waits()));
      row.set("speedup", Json::number(base_rate > 0
                                          ? result.aggregate_rate_mpps /
                                                base_rate
                                          : 0.0));
      Json split = Json::array();
      for (const std::uint64_t packets : result.shard_packets) {
        split.push(Json::integer(packets));
      }
      row.set("shard_packets", std::move(split));
      json.add(std::move(row));
    }

    std::printf("%-7zu %12.3f %12.1f %10llu   [", shards,
                result.aggregate_rate_mpps, result.wall_seconds * 1e3,
                static_cast<unsigned long long>(
                    runtime.backpressure_waits()));
    for (std::size_t s = 0; s < result.shard_packets.size(); ++s) {
      std::printf("%s%llu", s == 0 ? "" : " ",
                  static_cast<unsigned long long>(result.shard_packets[s]));
    }
    std::printf("]  (%.2fx)\n",
                base_rate > 0 ? result.aggregate_rate_mpps / base_rate
                              : 0.0);
  }
  json.write();
  std::printf("\n");
}

}  // namespace
}  // namespace speedybox::bench

int main() {
  speedybox::bench::run();
  return 0;
}
