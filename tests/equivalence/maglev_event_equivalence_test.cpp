// §VII-C-2: "Testing Maglev (containing events)" — inject a flow of 10
// packets, trigger a backend failure before the 6th, and verify packets 1-5
// carry the original backend address, packets 6-10 the new one, with all
// other header fields and payloads intact.
#include <gtest/gtest.h>

#include "equivalence/equivalence_helpers.hpp"
#include "net/checksum.hpp"
#include "net/fields.hpp"
#include "nf/maglev_lb.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::run_chain;
using speedybox::testing::tuple_n;

std::vector<nf::Backend> two_backends() {
  return {
      {"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
      {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true},
  };
}

std::vector<nf::Backend> three_backends() {
  return {
      {"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
      {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true},
      {"b2", net::Ipv4Addr{10, 2, 0, 12}, 8002, true},
  };
}

trace::Workload one_flow(std::uint32_t packets) {
  trace::Workload workload;
  trace::FlowSpec flow;
  flow.tuple = tuple_n(1);
  flow.packet_count = packets;
  flow.payload.assign(32, 'p');
  flow.close_with_fin = false;  // keep the flow alive through the test
  flow.open_with_syn = false;
  workload.flows.push_back(flow);
  for (std::uint32_t seq = 0; seq < packets; ++seq) {
    workload.order.push_back({0, seq, net::kTcpFlagAck});
  }
  return workload;
}

trace::Workload ten_packet_flow() { return one_flow(10); }

TEST(MaglevEventEquivalence, PaperCaseStudy) {
  const trace::Workload workload = ten_packet_flow();

  const auto run_with_failover = [&workload](bool speedybox) {
    auto chain = std::make_unique<ServiceChain>();
    auto& lb = chain->emplace_nf<nf::MaglevLb>(two_backends(),
                                               std::size_t{251});
    std::size_t original_backend = SIZE_MAX;
    auto result = run_chain(
        *chain, workload, speedybox,
        [&lb, &original_backend](ServiceChain&, std::size_t index) {
          if (index == 5) {  // before the 6th packet
            original_backend = lb.backend_of(tuple_n(1)).value();
            lb.fail_backend(original_backend);
          }
        });
    return std::make_tuple(std::move(result), original_backend,
                           std::move(chain));
  };

  const auto [speedy, failed_backend, chain] = run_with_failover(true);
  ASSERT_EQ(speedy.outputs.size(), 10u);
  ASSERT_NE(failed_backend, SIZE_MAX);
  const auto backends = two_backends();
  const std::uint32_t ip1 = backends[failed_backend].ip.value;
  const std::uint32_t ip2 = backends[1 - failed_backend].ip.value;

  for (std::size_t i = 0; i < 10; ++i) {
    const auto parsed = net::parse_packet(speedy.outputs[i]);
    const std::uint32_t dst =
        net::get_field(speedy.outputs[i], *parsed, net::HeaderField::kDstIp);
    if (i < 5) {
      EXPECT_EQ(dst, ip1) << "packet " << i + 1 << " must go to ip1";
    } else {
      EXPECT_EQ(dst, ip2) << "packet " << i + 1 << " must go to ip2";
    }
    // "The remaining headers and packet payloads going to ip2 are verified
    // to be true": payload intact, checksums valid.
    const auto payload = net::payload_view(speedy.outputs[i], *parsed);
    EXPECT_EQ(std::string(payload.begin(), payload.end()),
              std::string(32, 'p'));
    EXPECT_TRUE(net::verify_ipv4_checksum(speedy.outputs[i],
                                          parsed->l3_offset));
    EXPECT_TRUE(net::verify_l4_checksum(speedy.outputs[i], *parsed));
  }
}

TEST(MaglevEventEquivalence, OriginalAndSpeedyBoxIdenticalUnderFailover) {
  const trace::Workload workload = ten_packet_flow();

  const auto run_mode = [&workload](bool speedybox) {
    auto chain = std::make_unique<ServiceChain>();
    auto& lb = chain->emplace_nf<nf::MaglevLb>(two_backends(),
                                               std::size_t{251});
    return run_chain(*chain, workload, speedybox,
                     [&lb](ServiceChain&, std::size_t index) {
                       if (index == 5) {
                         lb.fail_backend(
                             lb.backend_of(tuple_n(1)).value());
                       }
                     });
  };

  const auto original = run_mode(false);
  const auto speedy = run_mode(true);
  speedybox::testing::expect_identical_outputs(original, speedy);
}

TEST(MaglevEventEquivalence, SecondFailoverFollowsTheReroutedBackend) {
  // Fail the flow's backend before packet 6, then the backend it was
  // rerouted to before packet 11. The failover condition must read the
  // connection-tracking cell that the first reroute rewrote in place: a
  // condition holding the first backend's index would keep firing (one
  // reroute per packet) instead of firing exactly twice.
  const trace::Workload workload = one_flow(15);

  const auto run_mode = [&workload](bool speedybox) {
    auto chain = std::make_unique<ServiceChain>();
    auto& lb = chain->emplace_nf<nf::MaglevLb>(three_backends(),
                                               std::size_t{251});
    auto run = run_chain(*chain, workload, speedybox,
                         [&lb](ServiceChain&, std::size_t index) {
                           if (index == 5 || index == 10) {
                             lb.fail_backend(
                                 lb.backend_of(tuple_n(1)).value());
                           }
                         });
    EXPECT_EQ(lb.reroutes(), 2u) << (speedybox ? "speedybox" : "original");
    return std::make_pair(
        std::move(run),
        chain->global_mat().events_triggered());
  };

  const auto [original, original_events] = run_mode(false);
  const auto [speedy, speedy_events] = run_mode(true);
  ASSERT_EQ(original.outputs.size(), 15u);
  speedybox::testing::expect_identical_outputs(original, speedy);
  EXPECT_EQ(original_events, 0u);
  EXPECT_EQ(speedy_events, 2u);
}

TEST(MaglevEventEquivalence, NoFailureNoEvent) {
  const trace::Workload workload = ten_packet_flow();
  auto chain = std::make_unique<ServiceChain>();
  chain->emplace_nf<nf::MaglevLb>(two_backends(), std::size_t{251});
  ChainRunner runner{*chain, {platform::PlatformKind::kBess, true}};
  for (std::size_t i = 0; i < workload.order.size(); ++i) {
    net::Packet packet = workload.materialize(i);
    runner.process_packet(packet);
  }
  EXPECT_EQ(runner.stats().events_triggered, 0u);
}

}  // namespace
}  // namespace speedybox::runtime
