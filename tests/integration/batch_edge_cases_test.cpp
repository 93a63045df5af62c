// In-batch edge cases of the vector data path (DESIGN.md §8): the hazards
// that only exist once multiple packets share one PacketBatch.
//
//   * a FIN/RST teardown followed by a later packet of the SAME five-tuple
//     inside one batch — the batched classifier pass must flush at the
//     teardown boundary so the reused tuple re-records, exactly as it
//     would packet-at-a-time;
//   * a batch where every packet drops — all slots masked, nothing
//     forwarded, per-slot outcomes still filled;
//   * a recording-pass (initial) packet sharing a batch with fast-path
//     packets — recording stays per-packet in-batch while its neighbors
//     take the Global-MAT path;
//   * an event that fires inside a burst (a DoS blacklist) or on the first
//     burst after a Maglev backend fails — the batch warms every fast-path
//     record before any of them runs, so the packets behind the event must
//     still run the recompiled rule.
//
// Each case is checked both directly (expected flags) and differentially
// (byte-identical to a packet-at-a-time run — process_packet, a batch of
// one — of the same packets on a fresh chain).
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nf/dos_prevention.hpp"
#include "nf/ip_filter.hpp"
#include "nf/maglev_lb.hpp"
#include "nf/monitor.hpp"
#include "net/packet_batch.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::same_bytes;
using speedybox::testing::tuple_n;

std::unique_ptr<ServiceChain> monitor_filter_chain() {
  auto chain = std::make_unique<ServiceChain>("mon-filter");
  chain->emplace_nf<nf::Monitor>();
  chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{});
  return chain;
}

RunConfig speedybox_config(std::size_t batch_size) {
  RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = batch_size;
  return config;
}

net::Packet flow_packet(std::uint32_t flow, std::string_view payload,
                        std::uint8_t flags = net::kTcpFlagAck) {
  return net::make_tcp_packet(tuple_n(flow), payload, flags);
}

/// Packet-at-a-time reference of `packets` on a fresh chain.
std::vector<net::Packet> per_packet_reference(
    const std::vector<net::Packet>& packets,
    std::unique_ptr<ServiceChain> chain,
    std::vector<PacketOutcome>* outcomes = nullptr) {
  ChainRunner runner{*chain, speedybox_config(1)};
  std::vector<net::Packet> out;
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    const PacketOutcome outcome = runner.process_packet(packet);
    if (outcomes != nullptr) outcomes->push_back(outcome);
    out.push_back(std::move(packet));
  }
  return out;
}

TEST(BatchEdgeCases, TeardownThenSameTupleReuseInOneBatch) {
  // One batch: [A ack, A fin, A ack, A ack]. The FIN tears flow A down
  // mid-batch; the packet right after it is the SAME five-tuple, so it must
  // re-record (initial), and the last one rides the rebuilt rule.
  std::vector<net::Packet> packets;
  packets.push_back(flow_packet(7, "warmup"));
  packets.push_back(flow_packet(7, "", net::kTcpFlagFin | net::kTcpFlagAck));
  packets.push_back(flow_packet(7, "reopen"));
  packets.push_back(flow_packet(7, "steady"));

  auto chain = monitor_filter_chain();
  ChainRunner runner{*chain, speedybox_config(8)};
  std::vector<net::Packet> batched;
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    batched.push_back(std::move(packet));
  }
  net::PacketBatch batch{8};
  for (net::Packet& packet : batched) batch.push(&packet);
  std::vector<PacketOutcome> outcomes;
  runner.process_batch(batch, outcomes);

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].initial) << "first packet of A records";
  EXPECT_TRUE(outcomes[1].fast_path) << "the FIN is a subsequent packet";
  EXPECT_TRUE(outcomes[2].initial)
      << "same tuple after an in-batch teardown must re-record";
  EXPECT_TRUE(outcomes[3].fast_path)
      << "packet after the re-record rides the rebuilt rule";
  for (const PacketOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.dropped);
  }

  std::vector<PacketOutcome> ref_outcomes;
  const std::vector<net::Packet> reference =
      per_packet_reference(packets, monitor_filter_chain(), &ref_outcomes);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(outcomes[i].initial, ref_outcomes[i].initial) << i;
    EXPECT_EQ(outcomes[i].fast_path, ref_outcomes[i].fast_path) << i;
    EXPECT_TRUE(same_bytes(batched[i], reference[i])) << "packet " << i;
  }
}

TEST(BatchEdgeCases, RstTeardownReuseInOneBatch) {
  // Same flush boundary, RST flavor, with unrelated flows interleaved so
  // the segment split lands mid-batch rather than at its edges.
  std::vector<net::Packet> packets;
  packets.push_back(flow_packet(1, "a"));
  packets.push_back(flow_packet(2, "b"));
  packets.push_back(flow_packet(1, "", net::kTcpFlagRst));
  packets.push_back(flow_packet(2, "c"));
  packets.push_back(flow_packet(1, "reborn"));

  auto chain = monitor_filter_chain();
  ChainRunner runner{*chain, speedybox_config(8)};
  std::vector<net::Packet> batched;
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    batched.push_back(std::move(packet));
  }
  net::PacketBatch batch{8};
  for (net::Packet& packet : batched) batch.push(&packet);
  std::vector<PacketOutcome> outcomes;
  runner.process_batch(batch, outcomes);

  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[2].fast_path) << "the RST itself is subsequent";
  EXPECT_TRUE(outcomes[3].fast_path)
      << "flow 2 is untouched by flow 1's teardown";
  EXPECT_TRUE(outcomes[4].initial) << "flow 1 re-records after the RST";

  std::vector<PacketOutcome> ref_outcomes;
  const std::vector<net::Packet> reference =
      per_packet_reference(packets, monitor_filter_chain(), &ref_outcomes);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(outcomes[i].initial, ref_outcomes[i].initial) << i;
    EXPECT_EQ(outcomes[i].fast_path, ref_outcomes[i].fast_path) << i;
    EXPECT_TRUE(same_bytes(batched[i], reference[i])) << "packet " << i;
  }
}

TEST(BatchEdgeCases, BatchWhereEveryPacketDrops) {
  // An ACL that drops the whole test prefix: every slot masks, outcomes
  // still fill per slot, and the batch ends with zero valid packets.
  const auto make_chain = [] {
    auto chain = std::make_unique<ServiceChain>("drop-all");
    chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{
        nf::AclRule::drop_dst_prefix(net::Ipv4Addr{10, 1, 0, 0}, 16)});
    chain->emplace_nf<nf::Monitor>();
    return chain;
  };
  std::vector<net::Packet> packets;
  for (std::uint32_t flow = 0; flow < 6; ++flow) {
    packets.push_back(flow_packet(flow, "doomed"));
  }

  auto chain = make_chain();
  ChainRunner runner{*chain, speedybox_config(8)};
  std::vector<net::Packet> batched = packets;
  for (net::Packet& packet : batched) packet.reset_metadata();
  net::PacketBatch batch{8};
  for (net::Packet& packet : batched) batch.push(&packet);
  std::vector<PacketOutcome> outcomes;
  runner.process_batch(batch, outcomes);

  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_EQ(batch.valid_count(), 0u) << "every slot must end masked";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].dropped) << "packet " << i;
    EXPECT_TRUE(batched[i].dropped()) << "packet " << i;
  }
  EXPECT_EQ(runner.stats().drops, 6u);
  EXPECT_EQ(runner.stats().packets, 6u);

  std::vector<PacketOutcome> ref_outcomes;
  per_packet_reference(packets, make_chain(), &ref_outcomes);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].dropped, ref_outcomes[i].dropped) << i;
  }
}

TEST(BatchEdgeCases, RecordingPacketSharesBatchWithFastPathPackets) {
  // Warm flow A in a first batch, then one batch mixing A's fast-path
  // packets with flow B's very first (recording) packet.
  auto chain = monitor_filter_chain();
  ChainRunner runner{*chain, speedybox_config(8)};

  net::Packet warm = flow_packet(21, "warm");
  net::PacketBatch warm_batch{8};
  warm_batch.push(&warm);
  std::vector<PacketOutcome> outcomes;
  runner.process_batch(warm_batch, outcomes);
  ASSERT_TRUE(outcomes[0].initial);

  std::vector<net::Packet> packets;
  packets.push_back(flow_packet(21, "fast-1"));
  packets.push_back(flow_packet(22, "record-me"));
  packets.push_back(flow_packet(21, "fast-2"));
  packets.push_back(flow_packet(22, "now-fast"));
  std::vector<net::Packet> batched;
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    batched.push_back(std::move(packet));
  }
  net::PacketBatch batch{8};
  for (net::Packet& packet : batched) batch.push(&packet);
  runner.process_batch(batch, outcomes);

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].fast_path);
  EXPECT_TRUE(outcomes[1].initial) << "flow B records mid-batch";
  EXPECT_TRUE(outcomes[2].fast_path);
  EXPECT_TRUE(outcomes[3].fast_path)
      << "flow B's second packet rides the just-consolidated rule";

  // Differential leg: the same five packets one at a time, fresh chain.
  std::vector<net::Packet> all_packets;
  all_packets.push_back(flow_packet(21, "warm"));
  all_packets.insert(all_packets.end(), packets.begin(), packets.end());
  const std::vector<net::Packet> reference =
      per_packet_reference(all_packets, monitor_filter_chain());
  EXPECT_TRUE(same_bytes(warm, reference[0]));
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_TRUE(same_bytes(batched[i], reference[i + 1]))
        << "packet " << i;
  }
}

TEST(BatchEdgeCases, PreDroppedPacketEntersMaskedAndIsSkipped) {
  // A packet already marked dropped when the batch is built enters masked:
  // the data path never touches it and it is not accounted.
  auto chain = monitor_filter_chain();
  ChainRunner runner{*chain, speedybox_config(8)};
  net::Packet live = flow_packet(31, "live");
  net::Packet dead = flow_packet(32, "dead");
  dead.mark_dropped();
  net::PacketBatch batch{8};
  batch.push(&live);
  batch.push(&dead);
  EXPECT_EQ(batch.valid_count(), 1u);
  std::vector<PacketOutcome> outcomes;
  runner.process_batch(batch, outcomes);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].initial);
  EXPECT_FALSE(outcomes[1].initial);
  EXPECT_FALSE(outcomes[1].fast_path);
  EXPECT_EQ(runner.stats().packets, 1u)
      << "slots masked at batch entry are not processed or accounted";
}

/// Batch sizes of the in-burst event cases: a batch of one, and bursts
/// that cut the traffic at different slots (13 leaves an odd tail).
constexpr std::size_t kEventBatchSizes[] = {1, 8, 13, 32};

/// Both runs of an event case must agree on every packet's bytes and drop
/// flag.
void expect_same_outputs(const std::vector<net::Packet>& batched,
                         const std::vector<net::Packet>& reference,
                         std::size_t batch_size) {
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].dropped(), reference[i].dropped())
        << "batch " << batch_size << " packet " << i;
    EXPECT_TRUE(same_bytes(batched[i], reference[i]))
        << "batch " << batch_size << " packet " << i;
  }
}

TEST(BatchEdgeCases, DosBlacklistFiresInsideABurst) {
  // Every third packet is a SYN of flow 50; the others are fast-path
  // packets of five other flows. With a threshold of 3, the SYN at index
  // 12 arrives with a count of 4 and fires the blacklist, which lands
  // inside a burst at every batch size above 1.
  static constexpr std::uint64_t kThreshold = 3;
  constexpr std::size_t kFirstDrop = 12;
  std::vector<net::Packet> packets;
  for (std::uint32_t i = 0; i < 48; ++i) {
    packets.push_back(i % 3 == 0 ? flow_packet(50, "", net::kTcpFlagSyn)
                                 : flow_packet(i % 5, "payload"));
  }
  struct Run {
    std::vector<net::Packet> outputs;
    std::uint64_t events = 0;
    std::uint64_t dos_drops = 0;
    std::vector<nf::FlowCounters> counters;
  };
  const auto run = [&packets](std::size_t batch_size) {
    ServiceChain chain;
    auto& dos = chain.emplace_nf<nf::DosPrevention>(kThreshold);
    auto& monitor = chain.emplace_nf<nf::Monitor>();
    ChainRunner runner{chain, speedybox_config(batch_size)};
    Run result;
    result.events = runner.run(packets, &result.outputs).events_triggered;
    result.dos_drops = dos.drops();
    for (const std::uint32_t flow : {0u, 1u, 2u, 3u, 4u, 50u}) {
      const nf::FlowCounters* counters = monitor.counters_of(tuple_n(flow));
      result.counters.push_back(counters != nullptr ? *counters
                                                    : nf::FlowCounters{});
    }
    return result;
  };
  const auto first_drop = [](const std::vector<net::Packet>& outputs) {
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (outputs[i].dropped()) return i;
    }
    return outputs.size();
  };

  const Run reference = run(1);
  ASSERT_EQ(first_drop(reference.outputs), kFirstDrop);
  ASSERT_EQ(reference.events, 1u);
  for (const std::size_t batch_size : kEventBatchSizes) {
    const Run batched = run(batch_size);
    EXPECT_EQ(first_drop(batched.outputs), kFirstDrop) << batch_size;
    EXPECT_EQ(batched.events, reference.events) << batch_size;
    EXPECT_EQ(batched.dos_drops, reference.dos_drops) << batch_size;
    EXPECT_EQ(batched.counters, reference.counters) << batch_size;
    expect_same_outputs(batched.outputs, reference.outputs, batch_size);
  }
}

TEST(BatchEdgeCases, MaglevFailoverBetweenBursts) {
  // Twelve flows record in a first run; backend 0 then fails, and the next
  // run carries three packets of every flow, interleaved: the flows pinned
  // to backend 0 fire their failover event on their first fast-path packet
  // of the burst, the others keep their backend.
  const std::vector<nf::Backend> backends{
      {"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
      {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true},
      {"b2", net::Ipv4Addr{10, 2, 0, 12}, 8002, true},
  };
  constexpr std::uint32_t kFlows = 12;
  std::vector<net::Packet> first_packets;
  std::vector<net::Packet> after_failure;
  for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
    first_packets.push_back(flow_packet(flow, "open"));
  }
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
      after_failure.push_back(flow_packet(flow, "steady"));
    }
  }
  struct Run {
    std::vector<net::Packet> outputs;
    std::vector<std::size_t> pinned_before;
    std::uint64_t events = 0;
    std::uint64_t reroutes = 0;
    std::vector<std::uint64_t> bytes;
  };
  const auto run = [&](std::size_t batch_size) {
    ServiceChain chain;
    auto& lb = chain.emplace_nf<nf::MaglevLb>(backends, std::size_t{251});
    chain.emplace_nf<nf::Monitor>();
    ChainRunner runner{chain, speedybox_config(batch_size)};
    Run result;
    runner.run(first_packets, &result.outputs);
    for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
      result.pinned_before.push_back(lb.backend_of(tuple_n(flow)).value());
    }
    lb.fail_backend(0);
    result.events = runner.run(after_failure, &result.outputs).events_triggered;
    result.reroutes = lb.reroutes();
    result.bytes = lb.bytes_per_backend();
    return result;
  };

  const Run reference = run(1);
  const auto pinned = std::count(reference.pinned_before.begin(),
                                 reference.pinned_before.end(), 0u);
  ASSERT_GT(pinned, 0) << "some flow must start on the failing backend";
  ASSERT_LT(pinned, kFlows) << "some flow must start elsewhere";
  ASSERT_EQ(reference.reroutes, static_cast<std::uint64_t>(pinned));
  for (const std::size_t batch_size : kEventBatchSizes) {
    const Run batched = run(batch_size);
    EXPECT_EQ(batched.pinned_before, reference.pinned_before) << batch_size;
    EXPECT_EQ(batched.events, reference.events) << batch_size;
    EXPECT_EQ(batched.reroutes, reference.reroutes) << batch_size;
    EXPECT_EQ(batched.bytes, reference.bytes) << batch_size;
    expect_same_outputs(batched.outputs, reference.outputs, batch_size);
  }
}

}  // namespace
}  // namespace speedybox::runtime
