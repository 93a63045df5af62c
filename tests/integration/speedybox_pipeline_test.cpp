// The threaded ONVM deployment end-to-end. SpeedyBox mode: recording on NF
// cores, consolidation at the manager, fast-path state functions dispatched
// to the owning cores, held packets released in order, early drop at the
// manager. Original mode: every packet visits every NF core in FIFO order,
// drops stop at the dropping NF, and the stop protocol survives tiny rings.
#include <string_view>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "nf/ip_filter.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "nf/synthetic_nf.hpp"
#include "runtime/runner.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::same_bytes;
using speedybox::testing::tuple_n;

const RunConfig kSpeedyBox{platform::PlatformKind::kOnvm, true};
const RunConfig kOriginal{platform::PlatformKind::kOnvm, false};

/// Submit one packet, kept for drained().
void push(Executor& executor, net::Packet packet) {
  executor.submit({&packet, 1}, /*keep=*/true);
}

/// End the run; the delivered packets, in completion order.
std::vector<net::Packet> drained(Executor& executor) {
  std::vector<net::Packet> out;
  executor.drain(&out);
  return out;
}

/// A manager-exported telemetry counter, summed over the registry's shards.
std::uint64_t counter(const telemetry::Registry& registry,
                      std::string_view name) {
  for (const auto& [key, value] : registry.snapshot().aggregate().counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

/// On each flow's recording pass, registers a one-shot event whose
/// condition always holds: it fires once, on the flow's first fast-path
/// packet.
class AlwaysFiresNf : public nf::NetworkFunction {
 public:
  AlwaysFiresNf() : nf::NetworkFunction("always-fires") {}
  void process(net::Packet&, core::SpeedyBoxContext* ctx) override {
    if (ctx == nullptr) return;
    ctx->register_event(
        "always", [] { return true; }, [] { return core::EventUpdate{}; });
  }
};

TEST(SpeedyBoxPipeline, CountsTheEventsItsFastPathFires) {
  // 10 flows of 5 packets: every flow has fast-path packets, so each
  // flow's event fires exactly once.
  const trace::Workload workload = trace::make_uniform_workload(10, 5, 32);
  telemetry::Registry registry;
  ServiceChain chain;
  chain.emplace_nf<AlwaysFiresNf>();
  SpeedyBoxPipeline pipeline{chain, kSpeedyBox};
  pipeline.attach_telemetry(&registry, "pipeline");
  const RunStats& stats = pipeline.run(workload);
  EXPECT_EQ(chain.global_mat().events_triggered(), 10u);
  EXPECT_EQ(stats.events_triggered, chain.global_mat().events_triggered());
  EXPECT_EQ(counter(registry, "events_triggered"), stats.events_triggered);

  ServiceChain reference;
  reference.emplace_nf<AlwaysFiresNf>();
  ChainRunner runner{reference, {platform::PlatformKind::kBess, true}};
  EXPECT_EQ(runner.run(workload).events_triggered, stats.events_triggered);
}

TEST(SpeedyBoxPipeline, OutputsMatchSingleThreadedSpeedyBox) {
  const trace::Workload workload = trace::make_uniform_workload(15, 12, 80);

  // Threaded run.
  std::vector<net::Packet> threaded_out;
  telemetry::Registry registry;
  {
    ServiceChain chain;
    chain.emplace_nf<nf::MazuNat>();
    chain.emplace_nf<nf::Monitor>();
    SpeedyBoxPipeline pipeline{chain, kSpeedyBox};
    pipeline.attach_telemetry(&registry, "pipeline");
    for (std::size_t i = 0; i < workload.packet_count(); ++i) {
      push(pipeline, workload.materialize(i));
    }
    threaded_out = drained(pipeline);
  }

  // Single-threaded reference run.
  std::vector<net::Packet> reference_out;
  {
    ServiceChain chain;
    chain.emplace_nf<nf::MazuNat>();
    chain.emplace_nf<nf::Monitor>();
    ChainRunner runner{chain, {platform::PlatformKind::kBess, true}};
    for (std::size_t i = 0; i < workload.packet_count(); ++i) {
      net::Packet packet = workload.materialize(i);
      if (!runner.process_packet(packet).dropped) {
        reference_out.push_back(std::move(packet));
      }
    }
  }

  EXPECT_EQ(counter(registry, "consolidations"), 15u);
  ASSERT_EQ(threaded_out.size(), reference_out.size());

  // The pipeline guarantees per-flow FIFO but not global arrival order
  // (packets held during recording are released at consolidation time), so
  // compare the ordered per-flow byte sequences.
  using FlowOutputs =
      std::unordered_map<net::FiveTuple, std::vector<std::vector<std::uint8_t>>,
                         net::FiveTupleHash>;
  const auto group = [](const std::vector<net::Packet>& packets) {
    FlowOutputs flows;
    for (const net::Packet& packet : packets) {
      const auto parsed = net::parse_packet(packet);
      flows[net::extract_five_tuple(packet, *parsed)].emplace_back(
          packet.bytes().begin(), packet.bytes().end());
    }
    return flows;
  };
  const FlowOutputs threaded_flows_out = group(threaded_out);
  const FlowOutputs reference_flows_out = group(reference_out);
  ASSERT_EQ(threaded_flows_out.size(), reference_flows_out.size());
  for (const auto& [tuple, sequence] : reference_flows_out) {
    const auto it = threaded_flows_out.find(tuple);
    ASSERT_NE(it, threaded_flows_out.end()) << tuple.to_string();
    EXPECT_EQ(it->second, sequence) << tuple.to_string();
  }
}

TEST(SpeedyBoxPipeline, StateFunctionsRunOnNfCores) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  auto& monitor = chain.emplace_nf<nf::Monitor>();
  {
    SpeedyBoxPipeline pipeline{chain, kSpeedyBox};
    for (int i = 0; i < 20; ++i) {
      push(pipeline, net::make_tcp_packet(tuple_n(1), "counted"));
    }
    drained(pipeline);
  }
  // Every packet accounted exactly once (initial on the monitor's core via
  // process(), subsequent via its recorded state function on the same
  // core).
  EXPECT_EQ(monitor.total_packets(), 20u);
}

TEST(SpeedyBoxPipeline, EarlyDropAtManager) {
  ServiceChain chain;
  auto& f1 = chain.emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{},
                                            "pass");
  auto& f2 = chain.emplace_nf<nf::IpFilter>(
      std::vector<nf::AclRule>{nf::AclRule::drop_dst_port(80)}, "drop80");
  std::uint64_t drops;
  {
    SpeedyBoxPipeline pipeline{chain, kSpeedyBox};
    for (int i = 0; i < 10; ++i) {
      push(pipeline, net::make_tcp_packet(tuple_n(2, 80), "doomed"));
    }
    const auto out = drained(pipeline);
    EXPECT_TRUE(out.empty());
    drops = pipeline.stats().drops;
  }
  EXPECT_EQ(drops, 10u);
  // Only the initial packet reached the NF cores.
  EXPECT_EQ(f1.packets_processed(), 1u);
  EXPECT_EQ(f2.packets_processed(), 1u);
}

TEST(SpeedyBoxPipeline, PacketsHeldDuringRecordingAreReleasedInOrder) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  auto& monitor = chain.emplace_nf<nf::Monitor>();
  telemetry::Registry registry;
  std::vector<net::Packet> out;
  {
    SpeedyBoxPipeline pipeline{chain, kSpeedyBox};
    pipeline.attach_telemetry(&registry, "pipeline");
    // Burst the whole flow without draining: packets 2..N arrive while the
    // initial packet is still being recorded on the NF threads.
    for (int i = 0; i < 30; ++i) {
      net::FiveTuple tuple = tuple_n(3);
      net::PacketSpec spec;
      spec.tuple = tuple;
      spec.seq = static_cast<std::uint32_t>(i);
      spec.payload = {};
      push(pipeline, net::build_packet(spec));
    }
    out = drained(pipeline);
  }
  ASSERT_EQ(out.size(), 30u);
  EXPECT_GT(counter(registry, "held_packets"), 0u)
      << "the burst must actually exercise the hold queue";
  EXPECT_EQ(monitor.total_packets(), 30u);
  // Per-flow FIFO: TCP sequence numbers strictly increasing.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto parsed = net::parse_packet(out[i]);
    const std::uint32_t seq = net::load_be32(out[i].bytes(),
                                             parsed->l4_offset + 4);
    EXPECT_EQ(seq, i) << "packet " << i << " out of order";
  }
}

TEST(SpeedyBoxPipeline, TeardownFreesFlowState) {
  ServiceChain chain;
  auto& nat = chain.emplace_nf<nf::MazuNat>();
  {
    SpeedyBoxPipeline pipeline{chain, kSpeedyBox};
    push(pipeline, net::make_tcp_packet(tuple_n(4), "open"));
    push(pipeline, net::make_tcp_packet(tuple_n(4), "data"));
    push(pipeline, net::make_tcp_packet(
        tuple_n(4), "", net::kTcpFlagFin | net::kTcpFlagAck));
    drained(pipeline);
  }
  EXPECT_EQ(nat.active_mappings(), 0u);
  EXPECT_EQ(chain.global_mat().size(), 0u);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
}

TEST(SpeedyBoxPipeline, PacketsBehindAFinStartANewFlow) {
  // In arrival order the FIN closes the flow, so a packet of the same tuple
  // behind it is a new flow's initial packet — as on the runner — even if
  // it arrives while the FIN is still on its way through the NF cores.
  const net::FiveTuple tuple = tuple_n(5);
  std::vector<net::Packet> input = {
      net::make_tcp_packet(tuple, "open"),
      net::make_tcp_packet(tuple, "", net::kTcpFlagFin | net::kTcpFlagAck),
      net::make_tcp_packet(tuple, "again"),
      net::make_tcp_packet(tuple, "more"),
  };
  ServiceChain threaded;
  auto& nat = threaded.emplace_nf<nf::MazuNat>();
  auto& monitor = threaded.emplace_nf<nf::Monitor>();
  std::vector<net::Packet> out;
  {
    SpeedyBoxPipeline pipeline{threaded, kSpeedyBox};
    pipeline.run(input, &out);
  }
  ServiceChain reference;
  reference.emplace_nf<nf::MazuNat>();
  reference.emplace_nf<nf::Monitor>();
  ChainRunner runner{reference, kSpeedyBox};
  std::vector<net::Packet> expected;
  runner.run_packets(input, &expected);

  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(same_bytes(out[i], expected[i])) << "packet " << i;
  }
  EXPECT_EQ(threaded.classifier().initial_count(), 2u);
  EXPECT_EQ(threaded.global_mat().consolidations(), 2u);
  EXPECT_EQ(nat.active_mappings(), 1u) << "the second flow is still open";
  EXPECT_EQ(monitor.total_packets(), 4u);
}

TEST(SpeedyBoxPipeline, ManyFlowsStress) {
  ServiceChain chain;
  chain.emplace_nf<nf::MazuNat>();
  chain.emplace_nf<nf::Monitor>();
  chain.emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{});
  const trace::Workload workload = trace::make_uniform_workload(50, 40, 48);
  std::vector<net::Packet> out;
  {
    SpeedyBoxPipeline pipeline{chain, kSpeedyBox, /*ring_capacity=*/32};
    for (std::size_t i = 0; i < workload.packet_count(); ++i) {
      push(pipeline, workload.materialize(i));
    }
    out = drained(pipeline);
  }
  EXPECT_EQ(out.size(), workload.packet_count());
}

// -- Original mode: the unmodified chain, one core per NF ------------------

TEST(OriginalPipeline, AllPacketsTraverseAllStages) {
  ServiceChain chain;
  auto& m1 = chain.emplace_nf<nf::Monitor>("m1");
  auto& m2 = chain.emplace_nf<nf::Monitor>("m2");
  auto& m3 = chain.emplace_nf<nf::Monitor>("m3");
  constexpr int kPackets = 500;
  std::vector<net::Packet> out;
  {
    SpeedyBoxPipeline pipeline{chain, kOriginal};
    for (int i = 0; i < kPackets; ++i) {
      push(pipeline, net::make_tcp_packet(
          tuple_n(static_cast<std::uint32_t>(i % 10)), "data"));
    }
    out = drained(pipeline);
  }
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(m1.packets_processed(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(m2.packets_processed(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(m3.packets_processed(), static_cast<std::uint64_t>(kPackets));
}

TEST(OriginalPipeline, PreservesFifoOrder) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>("m1");
  chain.emplace_nf<nf::Monitor>("m2");
  SpeedyBoxPipeline pipeline{chain, kOriginal, /*ring_capacity=*/64};
  constexpr int kPackets = 300;
  for (int i = 0; i < kPackets; ++i) {
    // Encode sequence in the source port: one flow per packet, so this is
    // global order, not just per-flow FIFO.
    net::FiveTuple tuple = tuple_n(1);
    tuple.src_port = static_cast<std::uint16_t>(1000 + i);
    push(pipeline, net::make_tcp_packet(tuple, "x"));
  }
  const auto out = drained(pipeline);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    const auto parsed = net::parse_packet(out[static_cast<std::size_t>(i)]);
    EXPECT_EQ(net::extract_five_tuple(out[static_cast<std::size_t>(i)],
                                      *parsed)
                  .src_port,
              1000 + i);
  }
}

TEST(OriginalPipeline, DroppedPacketsNeverReachDownstream) {
  ServiceChain chain;
  auto& filter = chain.emplace_nf<nf::IpFilter>(
      std::vector<nf::AclRule>{nf::AclRule::drop_dst_port(80)}, "fw");
  auto& monitor = chain.emplace_nf<nf::Monitor>("after");
  std::vector<net::Packet> out;
  std::uint64_t drops;
  {
    SpeedyBoxPipeline pipeline{chain, kOriginal};
    for (int i = 0; i < 50; ++i) {
      push(pipeline, net::make_tcp_packet(tuple_n(1, 80), "blocked"));
      push(pipeline, net::make_tcp_packet(tuple_n(2, 443), "allowed"));
    }
    out = drained(pipeline);
    drops = pipeline.stats().drops;
  }
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(drops, 50u);
  EXPECT_EQ(monitor.packets_processed(), 50u);
  EXPECT_EQ(filter.drops(), 50u);
}

TEST(OriginalPipeline, StagesActuallyTransformPackets) {
  nf::SyntheticNfConfig config;
  config.access = core::PayloadAccess::kWrite;
  config.work_iterations = 1;
  ServiceChain chain;
  chain.emplace_nf<nf::SyntheticNf>(config, "writer");
  SpeedyBoxPipeline pipeline{chain, kOriginal};
  push(pipeline, net::make_tcp_packet(tuple_n(3), "mutate me"));
  const auto out = drained(pipeline);
  ASSERT_EQ(out.size(), 1u);
  const net::Packet reference = net::make_tcp_packet(tuple_n(3), "mutate me");
  EXPECT_FALSE(same_bytes(out[0], reference));
}

TEST(OriginalPipeline, StopIdempotent) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>("m");
  SpeedyBoxPipeline pipeline{chain, kOriginal};
  push(pipeline, net::make_tcp_packet(tuple_n(4), "x"));
  const auto first = drained(pipeline);
  EXPECT_EQ(first.size(), 1u);
  const auto second = drained(pipeline);
  EXPECT_TRUE(second.empty());
}

TEST(OriginalPipeline, SmallRingsBackpressureWithoutDeadlock) {
  ServiceChain chain;
  chain.emplace_nf<nf::Monitor>("m1");
  chain.emplace_nf<nf::Monitor>("m2");
  SpeedyBoxPipeline pipeline{chain, kOriginal, /*ring_capacity=*/2};
  for (int i = 0; i < 200; ++i) {
    push(pipeline, net::make_tcp_packet(tuple_n(5), "x"));
  }
  EXPECT_EQ(drained(pipeline).size(), 200u);
}

}  // namespace
}  // namespace speedybox::runtime
