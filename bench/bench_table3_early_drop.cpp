// Table III: early packet drop saves CPU cycles.
//
// Chain of three IPFilters with actions {forward, forward, drop} for all
// flows. On the original path every packet burns NF1+NF2 before NF3 drops
// it; SpeedyBox drops subsequent packets at the head of the chain.
//
// Expected shape (paper): SpeedyBox aggregate ≈ one NF's worth of cycles,
// ~65% below the original aggregate.
#include "bench_util.hpp"

namespace speedybox::bench {
namespace {

void run() {
  // All flows target port 80; NF3's ACL blacklists port 80.
  const trace::Workload workload = trace::make_uniform_workload(
      /*flow_count=*/64, /*packets_per_flow=*/400, /*payload_size=*/10);

  const ChainFactory factory = [] {
    auto chain = std::make_unique<runtime::ServiceChain>();
    chain->emplace_nf<nf::IpFilter>(nonmatching_acl(), "NF1");
    chain->emplace_nf<nf::IpFilter>(nonmatching_acl(), "NF2");
    auto drop_acl = nonmatching_acl();
    drop_acl.push_back(nf::AclRule::drop_dst_port(80));
    chain->emplace_nf<nf::IpFilter>(drop_acl, "NF3");
    return chain;
  };

  print_header("Table III: early packet drop saves CPU cycles");
  BenchJson json{"table3_early_drop"};
  json.param("flows", 64);
  json.param("packets_per_flow", 400);
  std::printf("%-14s %10s %10s %10s %12s\n", "(CPU cycle)", "NF1", "NF2",
              "NF3", "Aggregate");
  for (const auto platform :
       {platform::PlatformKind::kBess, platform::PlatformKind::kOnvm}) {
    const ConfigResult original =
        run_config(factory, platform, false, workload);
    const ConfigResult speedy = run_config(factory, platform, true, workload);

    for (const auto& [mode, result] :
         {std::pair<const char*, const ConfigResult&>{"original", original},
          {"speedybox", speedy}}) {
      telemetry::Json row = config_row(
          std::string(platform_name(platform)) + "/" + mode, result);
      const std::vector<double> per_nf_means =
          result.stats.per_nf_mean_cycles();
      if (!per_nf_means.empty()) {
        telemetry::Json per_nf = telemetry::Json::array();
        for (const double cycles : per_nf_means) {
          per_nf.push(telemetry::Json::number(cycles));
        }
        row.set("per_nf_mean_cycles", std::move(per_nf));
      }
      json.add(std::move(row));
    }

    const std::vector<double> original_means =
        original.stats.per_nf_mean_cycles();
    std::printf("%-14s %8.0f %9.0f %9.0f %11.0f\n", platform_name(platform),
                original_means[0], original_means[1], original_means[2],
                original.sub_cycles);
    std::printf("%-6s w/ SBox %8s %9s %9s %11.0f (-%.1f%%)\n",
                platform_name(platform), "--", "--", "--",
                speedy.sub_cycles,
                reduction_pct(original.sub_cycles,
                              speedy.sub_cycles));
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
