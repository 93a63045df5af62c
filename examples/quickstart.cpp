// Quickstart: the smallest end-to-end use of the SpeedyBox public API.
//
// Builds a 3-NF chain (NAT -> Monitor -> Firewall), sends a few packets of
// two flows through the SpeedyBox data path, and prints what happened:
// which packet took the original (recording) path, what consolidated rule
// the Global MAT built, and how subsequent packets ride the fast path.
//
//   $ ./quickstart
#include <cstdio>

#include "net/packet_builder.hpp"
#include "nf/ip_filter.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "util/cycle_clock.hpp"

using namespace speedybox;

int main() {
  // 1. Build the chain. ServiceChain owns NFs added via emplace_nf and
  //    wires up the Global MAT (one record per flow) + classifier.
  runtime::ServiceChain chain{"quickstart"};
  chain.emplace_nf<nf::MazuNat>();
  chain.emplace_nf<nf::Monitor>();
  chain.emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{
      nf::AclRule::drop_dst_port(23)});  // telnet is blocked

  // 2. Attach a runner: platform model (BESS-style run-to-completion here)
  //    + the SpeedyBox data path, with the cycle model on so each packet
  //    reports its cycles and modeled latency.
  runtime::RunConfig config{platform::PlatformKind::kBess, /*speedybox=*/true};
  config.cycle_model = true;
  runtime::ChainRunner runner{chain, config};

  // 3. Two flows: one normal HTTP flow, one telnet flow that the firewall
  //    blacklists.
  net::FiveTuple http;
  http.src_ip = net::Ipv4Addr{192, 168, 1, 10};
  http.dst_ip = net::Ipv4Addr{10, 1, 0, 1};
  http.src_port = 40000;
  http.dst_port = 80;
  net::FiveTuple telnet = http;
  telnet.src_port = 40001;
  telnet.dst_port = 23;

  std::printf("--- sending 4 packets of the HTTP flow ---\n");
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = net::make_tcp_packet(http, "GET / HTTP/1.1");
    const auto outcome = runner.process_packet(packet);
    std::printf("pkt %d: %-10s work=%5llu cycles  latency=%.3f us\n", i + 1,
                outcome.initial ? "initial" : "fast-path",
                static_cast<unsigned long long>(outcome.work_cycles),
                util::CycleClock::to_us(outcome.latency_cycles));
    if (i == 0) {
      const core::FlowRecord* rule =
          chain.global_mat().find(packet.fid());
      std::printf("       consolidated rule: %s, %zu state-function "
                  "batch(es)\n",
                  rule->action.to_string().c_str(), rule->batches.size());
    }
  }

  std::printf("--- sending 3 packets of the telnet flow ---\n");
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = net::make_tcp_packet(telnet, "root");
    const auto outcome = runner.process_packet(packet);
    std::printf("pkt %d: %-10s %s\n", i + 1,
                outcome.initial ? "initial" : "fast-path",
                outcome.dropped ? "DROPPED (early drop at chain head)"
                                : "forwarded");
  }

  const auto& monitor = dynamic_cast<const nf::Monitor&>(chain.nf(1));
  std::printf("--- final state ---\n");
  std::printf("monitor counted %llu packets / %llu bytes\n",
              static_cast<unsigned long long>(monitor.total_packets()),
              static_cast<unsigned long long>(monitor.total_bytes()));
  std::printf("classifier: %zu active flows, %llu initial / %llu subsequent\n",
              chain.classifier().active_flows(),
              static_cast<unsigned long long>(
                  chain.classifier().initial_count()),
              static_cast<unsigned long long>(
                  chain.classifier().subsequent_count()));
  std::printf("global MAT: %zu consolidated rules, %llu consolidations\n",
              chain.global_mat().size(),
              static_cast<unsigned long long>(
                  chain.global_mat().consolidations()));
  return 0;
}
