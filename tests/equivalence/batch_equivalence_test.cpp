// Differential equivalence of the batched data path (DESIGN.md §8): the
// SAME packets through the SAME chain, packet-at-a-time (process_packet,
// a batch of one — the reference, which has no in-batch hazard) vs batched
// (process_batch at burst sizes 8, 13, 32), on both §VII-C real-world
// chains and in both original and SpeedyBox modes.
//
// The contract under test: vector processing changes ONLY the
// amortization. Per input index the outcome flags, the event counts, and
// the exact output bytes must match the reference run, and the aggregate
// RunStats counters (packets, drops, events, sample counts) must be
// identical. Burst sizes that do not divide the packet count exercise the
// non-multiple tail; the SpeedyBox leg's mid-batch teardowns exercise the
// classifier flush boundary.
//
// One level down, the process_batch overrides of Monitor, IpFilter and
// SnortIds must match their own per-packet process(): same bytes, drop
// flags and NF counters at every burst size.
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "net/packet_batch.hpp"
#include "nf/ip_filter.hpp"
#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::chain1_workload;
using speedybox::testing::chain2_workload;
using speedybox::testing::make_chain1;
using speedybox::testing::make_chain2;
using speedybox::testing::nf_at;
using speedybox::testing::same_bytes;

// 13 never divides the datacenter workloads' packet counts evenly and 32
// leaves a tail too: both chunkings end on a partial batch.
constexpr std::size_t kBatchSizes[] = {8, 13, 32};

std::vector<net::Packet> materialize_all(const trace::Workload& workload) {
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

struct RunResult {
  std::vector<PacketOutcome> outcomes;
  std::vector<net::Packet> packets;  // post-chain, dropped ones included
  RunStats stats;
};

/// The cycle model is on, so the histogram counts and the original path's
/// init/sub tagging below are compared too.
RunConfig make_config(bool speedybox, std::size_t batch_size) {
  RunConfig config{platform::PlatformKind::kBess, speedybox};
  config.batch_size = batch_size;
  config.cycle_model = true;
  return config;
}

/// The reference: one process_packet call (a batch of one) per packet.
RunResult run_reference(const std::vector<net::Packet>& packets,
                        std::unique_ptr<ServiceChain> chain, bool speedybox) {
  ChainRunner runner{*chain, make_config(speedybox, 1)};
  RunResult result;
  result.outcomes.reserve(packets.size());
  result.packets.reserve(packets.size());
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    result.outcomes.push_back(runner.process_packet(packet));
    result.packets.push_back(std::move(packet));
  }
  result.stats = runner.stats();
  return result;
}

/// The batched run: the same packets chunked into PacketBatches of
/// `batch_size` (the last chunk is the non-multiple tail whenever
/// batch_size does not divide the packet count).
RunResult run_batched(const std::vector<net::Packet>& packets,
                      std::unique_ptr<ServiceChain> chain, bool speedybox,
                      std::size_t batch_size) {
  ChainRunner runner{*chain, make_config(speedybox, batch_size)};
  RunResult result;
  result.outcomes.reserve(packets.size());
  result.packets.reserve(packets.size());
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    result.packets.push_back(std::move(packet));
  }
  std::vector<PacketOutcome> outcomes;
  for (std::size_t begin = 0; begin < result.packets.size();
       begin += batch_size) {
    const std::size_t end =
        std::min(begin + batch_size, result.packets.size());
    net::PacketBatch batch{batch_size};
    for (std::size_t i = begin; i < end; ++i) {
      batch.push(&result.packets[i]);
    }
    runner.process_batch(batch, outcomes);
    result.outcomes.insert(result.outcomes.end(), outcomes.begin(),
                           outcomes.end());
  }
  result.stats = runner.stats();
  return result;
}

/// Bit-identical semantics: flags, events and bytes per input index, and
/// identical aggregate counters. Cycle VALUES are measured (nondeterministic
/// by nature) — what must match is every count.
void expect_identical(const RunResult& ref, const RunResult& batched) {
  ASSERT_EQ(batched.outcomes.size(), ref.outcomes.size());
  ASSERT_EQ(batched.packets.size(), ref.packets.size());
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    EXPECT_EQ(batched.outcomes[i].initial, ref.outcomes[i].initial)
        << "initial flag, packet " << i;
    EXPECT_EQ(batched.outcomes[i].dropped, ref.outcomes[i].dropped)
        << "dropped flag, packet " << i;
    EXPECT_EQ(batched.outcomes[i].fast_path, ref.outcomes[i].fast_path)
        << "fast-path flag, packet " << i;
    EXPECT_EQ(batched.outcomes[i].events_triggered,
              ref.outcomes[i].events_triggered)
        << "events, packet " << i;
    ASSERT_TRUE(same_bytes(batched.packets[i], ref.packets[i]))
        << "packet " << i << " bytes differ";
  }
  EXPECT_EQ(batched.stats.packets, ref.stats.packets);
  EXPECT_EQ(batched.stats.drops, ref.stats.drops);
  EXPECT_EQ(batched.stats.events_triggered, ref.stats.events_triggered);
  EXPECT_EQ(batched.stats.latency_cycles_all().count(),
            ref.stats.latency_cycles_all().count());
  EXPECT_EQ(batched.stats.latency_cycles_initial.count(),
            ref.stats.latency_cycles_initial.count());
  EXPECT_EQ(batched.stats.latency_cycles_subsequent.count(),
            ref.stats.latency_cycles_subsequent.count());
  EXPECT_EQ(batched.stats.latency_cycles_subsequent_sequential.count(),
            ref.stats.latency_cycles_subsequent_sequential.count());
  EXPECT_EQ(batched.stats.platform_cycles_initial.count(),
            ref.stats.platform_cycles_initial.count());
  EXPECT_EQ(batched.stats.platform_cycles_subsequent.count(),
            ref.stats.platform_cycles_subsequent.count());
}

void run_differential(const trace::Workload& workload,
                      const std::function<std::unique_ptr<ServiceChain>()>&
                          factory,
                      bool speedybox) {
  const std::vector<net::Packet> packets = materialize_all(workload);
  const RunResult ref = run_reference(packets, factory(), speedybox);
  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    const RunResult batched =
        run_batched(packets, factory(), speedybox, batch_size);
    expect_identical(ref, batched);
  }
}

TEST(BatchEquivalence, Chain1SpeedyBox) {
  run_differential(chain1_workload(), make_chain1, /*speedybox=*/true);
}

TEST(BatchEquivalence, Chain1Original) {
  run_differential(chain1_workload(), make_chain1, /*speedybox=*/false);
}

TEST(BatchEquivalence, Chain2SpeedyBox) {
  run_differential(chain2_workload(), make_chain2, /*speedybox=*/true);
}

TEST(BatchEquivalence, Chain2Original) {
  run_differential(chain2_workload(), make_chain2, /*speedybox=*/false);
}

TEST(BatchEquivalence, WorkloadsExerciseTailsDropsAndTeardowns) {
  // Guard that the comparisons above actually cover the interesting cases:
  // partial tail batches, real drops, and FIN/RST teardowns mid-run.
  const trace::Workload workload = chain2_workload();
  EXPECT_NE(workload.packet_count() % 32, 0u)
      << "chain2 workload should leave a non-multiple tail at batch=32";
  const RunResult ref = run_reference(materialize_all(workload),
                                      make_chain2(), /*speedybox=*/true);
  EXPECT_GT(ref.stats.drops, 0u);
  std::size_t fins = 0;
  for (const trace::TracePacket& tp : workload.order) {
    if ((tp.tcp_flags & net::kTcpFlagFin) != 0) ++fins;
  }
  EXPECT_GT(fins, 0u) << "workload should tear flows down mid-run";
  // Same-tuple reuse after an in-batch teardown (the classifier flush
  // boundary) is exercised by the dedicated batch edge-case tests.
}

/// The counters an NF keeps about what it saw — its audit state.
std::vector<std::uint64_t> nf_counters(const nf::NetworkFunction& nf) {
  std::vector<std::uint64_t> counters{nf.packets_processed()};
  if (const auto* monitor = dynamic_cast<const nf::Monitor*>(&nf)) {
    counters.insert(counters.end(), {monitor->total_packets(),
                                     monitor->total_bytes(),
                                     monitor->flow_count()});
  } else if (const auto* filter = dynamic_cast<const nf::IpFilter*>(&nf)) {
    counters.insert(counters.end(),
                    {filter->drops(), filter->cached_flows()});
  } else if (const auto* snort = dynamic_cast<const nf::SnortIds*>(&nf)) {
    counters.insert(counters.end(),
                    {snort->alert_count(), snort->log_count(),
                     snort->pass_count(), snort->tracked_flows()});
  }
  return counters;
}

TEST(BatchEquivalence, NfBatchOverridesMatchPerPacketProcess) {
  // Chain 2 holds one of each override: IpFilter (drops 10.1.3.0/24),
  // SnortIds and Monitor. Each NF alone sees the raw chain-2 packets, on
  // a fresh chain per run so no state carries over.
  const std::vector<net::Packet> packets =
      materialize_all(chain2_workload());
  const auto fresh_copies = [&packets] {
    std::vector<net::Packet> copies = packets;
    for (net::Packet& packet : copies) packet.reset_metadata();
    return copies;
  };
  for (std::size_t index = 0; index < 3; ++index) {
    auto ref_chain = make_chain2();
    nf::NetworkFunction& ref_nf = ref_chain->nf(index);
    SCOPED_TRACE(ref_nf.name());
    ASSERT_GT(nf_counters(ref_nf).size(), 1u)
        << "chain 2's NFs are the three batch overrides";
    std::vector<net::Packet> ref = fresh_copies();
    for (net::Packet& packet : ref) ref_nf.process(packet, nullptr);
    if (index == 0) {
      EXPECT_GT(nf_at<nf::IpFilter>(*ref_chain, 0).drops(), 0u)
          << "the ACL must drop some of chain 2's packets";
    }

    for (const std::size_t batch_size : kBatchSizes) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
      auto chain = make_chain2();
      nf::NetworkFunction& nf = chain->nf(index);
      std::vector<net::Packet> batched = fresh_copies();
      for (std::size_t begin = 0; begin < batched.size();
           begin += batch_size) {
        net::PacketBatch batch{batch_size};
        for (std::size_t i = begin;
             i < std::min(begin + batch_size, batched.size()); ++i) {
          batch.push(&batched[i]);
        }
        nf.process_batch(batch, {});
      }
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(batched[i].dropped(), ref[i].dropped()) << "packet " << i;
        ASSERT_TRUE(same_bytes(batched[i], ref[i])) << "packet " << i;
      }
      EXPECT_EQ(nf_counters(nf), nf_counters(ref_nf));
    }
  }
}

}  // namespace
}  // namespace speedybox::runtime
