// Enterprise service chain (the paper's Chain 1):
//
//   MazuNAT -> Maglev LB -> Monitor -> IPFilter
//
// on a datacenter-style workload, with a Maglev backend failure injected
// mid-run. Demonstrates: consolidation across four heterogeneous NFs,
// per-flow events rerouting established connections on the fast path, and
// the latency distribution with vs without SpeedyBox.
//
//   $ ./enterprise_chain
#include <cstdio>
#include <memory>

#include "nf/ip_filter.hpp"
#include "nf/maglev_lb.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "trace/workload.hpp"
#include "util/cycle_clock.hpp"

using namespace speedybox;

namespace {

struct Chain {
  std::unique_ptr<runtime::ServiceChain> chain =
      std::make_unique<runtime::ServiceChain>("enterprise");
  nf::MaglevLb* lb = nullptr;
  nf::Monitor* monitor = nullptr;
};

Chain build_chain() {
  Chain c;
  c.chain->emplace_nf<nf::MazuNat>();
  std::vector<nf::Backend> backends;
  for (int i = 0; i < 4; ++i) {
    backends.push_back({"web-" + std::to_string(i),
                        net::Ipv4Addr{10, 2, 0, static_cast<std::uint8_t>(
                                                    10 + i)},
                        static_cast<std::uint16_t>(8080), true});
  }
  c.lb = &c.chain->emplace_nf<nf::MaglevLb>(backends, std::size_t{65537});
  c.monitor = &c.chain->emplace_nf<nf::Monitor>();
  c.chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{
      nf::AclRule::drop_src_ip(net::Ipv4Addr{192, 168, 66, 66})});
  return c;
}

void run_mode(const char* label, bool speedybox,
              const trace::Workload& workload) {
  Chain c = build_chain();
  runtime::RunConfig config{platform::PlatformKind::kBess, speedybox};
  config.cycle_model = true;  // the latency distribution is the model's
  runtime::ChainRunner runner{*c.chain, config};

  const std::size_t fail_at = workload.order.size() / 2;
  for (std::size_t i = 0; i < workload.order.size(); ++i) {
    if (i == fail_at) {
      std::printf("  [%s] backend web-1 fails after packet %zu\n", label, i);
      c.lb->fail_backend(1);
    }
    net::Packet packet = workload.materialize(i);
    runner.process_packet(packet);
  }

  const auto& stats = runner.stats();
  std::printf("  [%s] %llu packets, %llu drops, %llu events triggered, "
              "%llu reroutes\n",
              label, static_cast<unsigned long long>(stats.packets),
              static_cast<unsigned long long>(stats.drops),
              static_cast<unsigned long long>(stats.events_triggered),
              static_cast<unsigned long long>(c.lb->reroutes()));
  const util::LogHistogram& latency = stats.latency_cycles_subsequent;
  const auto us = [&latency](double p) {
    return util::CycleClock::to_us(
        static_cast<std::uint64_t>(latency.percentile(p)));
  };
  std::printf("  [%s] subsequent-packet latency: n=%llu p50=%.3f p90=%.3f "
              "p99=%.3f us\n",
              label, static_cast<unsigned long long>(latency.count()),
              us(50), us(90), us(99));
  std::printf("  [%s] monitor totals: %llu packets / %llu bytes\n", label,
              static_cast<unsigned long long>(c.monitor->total_packets()),
              static_cast<unsigned long long>(c.monitor->total_bytes()));
  std::printf("  [%s] per-backend bytes:", label);
  for (std::size_t b = 0; b < c.lb->backends().size(); ++b) {
    std::printf(" %s=%llu", c.lb->backends()[b].name.c_str(),
                static_cast<unsigned long long>(
                    c.lb->bytes_per_backend()[b]));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 150;
  config.payload_size = 200;
  const trace::Workload workload = make_datacenter_workload(config);
  std::printf("enterprise chain: MazuNAT -> Maglev(4 backends) -> Monitor -> "
              "IPFilter\nworkload: %zu flows, %zu packets\n\n",
              workload.flows.size(), workload.packet_count());

  std::printf("original chain (no SpeedyBox):\n");
  run_mode("orig", false, workload);
  std::printf("\nwith SpeedyBox runtime consolidation:\n");
  run_mode("sbox", true, workload);
  std::printf("\nNote: identical drop counts, reroutes and monitor totals —\n"
              "the fast path is logically equivalent; only the latency "
              "changes.\n");
  return 0;
}
