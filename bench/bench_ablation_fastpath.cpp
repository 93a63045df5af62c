// Micro-ablations of the fast-path design choices DESIGN.md calls out,
// using google-benchmark:
//
//   * BytePatch (one masked sweep) vs field-by-field modify application;
//   * classifier cost (parse + validate + FID assignment);
//   * Global MAT fast-path dispatch, with and without registered events
//     (cost of the per-packet event check);
//   * both of those at two working sets: one resident flow (every line
//     cache-hot) and 32768 flows visited in a fixed shuffled order, where
//     each packet pays for the per-flow lines it touches;
//   * consolidation cost (the one-time per-flow control-plane work);
//   * packet parse and checksum-validation primitives;
//   * Snort's per-packet inspection at three payload sizes.
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/api.hpp"
#include "core/classifier.hpp"
#include "core/global_mat.hpp"
#include "net/checksum.hpp"
#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "nf/snort_ids.hpp"
#include "util/rng.hpp"

namespace speedybox {
namespace {

/// The resident-flow counts the working-set benches run at.
constexpr std::int64_t kOneFlow = 1;
constexpr std::int64_t kManyFlows = 32768;

/// 0..flows-1 in a fixed shuffled order (Fisher-Yates over a seeded Rng),
/// so consecutive packets touch unrelated flows' lines.
std::vector<std::uint32_t> visit_order(std::size_t flows) {
  std::vector<std::uint32_t> order(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  util::Rng rng{0x5EED};
  for (std::size_t i = flows; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

net::FiveTuple bench_tuple(std::uint32_t id = 1) {
  net::FiveTuple tuple;
  tuple.src_ip = net::Ipv4Addr{0xC0A80000u + id};
  tuple.dst_ip = net::Ipv4Addr{10, 1, 0, 1};
  tuple.src_port = 22222;
  tuple.dst_port = 80;
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  return tuple;
}

std::vector<core::HeaderAction> nat_lb_actions() {
  return {
      core::HeaderAction::modify(net::HeaderField::kSrcIp, 0x0A000001),
      core::HeaderAction::modify(net::HeaderField::kSrcPort, 33333),
      core::HeaderAction::modify(net::HeaderField::kDstIp, 0x0A020010),
      core::HeaderAction::modify(net::HeaderField::kDstPort, 8000),
  };
}

void BM_ApplyFieldByField(benchmark::State& state) {
  net::Packet packet = net::make_tcp_packet(bench_tuple(), "payload");
  const auto actions = nat_lb_actions();
  for (auto _ : state) {
    for (const auto& action : actions) {
      core::apply_action_baseline(action, packet);
    }
    benchmark::DoNotOptimize(packet.bytes().data());
  }
}
BENCHMARK(BM_ApplyFieldByField);

void BM_ApplyBytePatch(benchmark::State& state) {
  net::Packet packet = net::make_tcp_packet(bench_tuple(), "payload");
  const core::ConsolidatedAction action = core::consolidate(nat_lb_actions());
  core::BytePatch patch;
  for (auto _ : state) {
    core::apply_consolidated(action, patch, packet);
    benchmark::DoNotOptimize(packet.bytes().data());
  }
}
BENCHMARK(BM_ApplyBytePatch);

void BM_ParsePacket(benchmark::State& state) {
  const net::Packet packet = net::make_tcp_packet(bench_tuple(), "payload");
  for (auto _ : state) {
    auto parsed = net::parse_packet(packet);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParsePacket);

void BM_ValidateIpv4Checksum(benchmark::State& state) {
  const net::Packet packet = net::make_tcp_packet(bench_tuple(), "payload");
  const auto parsed = net::parse_packet(packet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::verify_ipv4_checksum(packet, parsed->l3_offset));
  }
}
BENCHMARK(BM_ValidateIpv4Checksum);

void BM_FiveTupleHash(benchmark::State& state) {
  const net::FiveTuple tuple = bench_tuple();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuple.hash());
  }
}
BENCHMARK(BM_FiveTupleHash);

/// Subsequent-packet classification with `flows` resident flows (arg 0).
void BM_ClassifierSubsequent(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  core::PacketClassifier classifier;
  std::vector<net::Packet> packets;
  packets.reserve(flows);
  for (std::size_t f = 0; f < flows; ++f) {
    net::Packet first = net::make_tcp_packet(
        bench_tuple(static_cast<std::uint32_t>(f)), "x");
    classifier.classify(first);
    packets.push_back(net::make_tcp_packet(
        bench_tuple(static_cast<std::uint32_t>(f)), "x"));
  }
  const std::vector<std::uint32_t> order = visit_order(flows);
  std::size_t next = 0;
  for (auto _ : state) {
    auto result = classifier.classify(packets[order[next]]);
    benchmark::DoNotOptimize(result);
    if (++next == flows) next = 0;
  }
}
BENCHMARK(BM_ClassifierSubsequent)->ArgName("flows")->Arg(kOneFlow)->Arg(
    kManyFlows);

/// Fast-path dispatch with `events` registered hair-trigger-free events
/// per flow (arg 0: 0, 1 or 4) over `flows` resident flows (arg 1):
/// measures the per-packet cost of the event check. Each condition reads
/// its flow's own cell, as NFs' bound conditions do.
void BM_GlobalMatProcess(benchmark::State& state) {
  const auto events = state.range(0);
  const auto flows = static_cast<std::size_t>(state.range(1));
  core::GlobalMat mat;
  std::vector<std::uint64_t> cells(flows, 0);
  std::vector<net::Packet> packets;
  packets.reserve(flows);
  for (std::size_t f = 0; f < flows; ++f) {
    const auto fid = static_cast<std::uint32_t>(f);
    core::SpeedyBoxContext nat{mat.open_flow(fid), 0, fid};
    for (const auto& action : nat_lb_actions()) {
      nat.add_header_action(action);
    }
    for (std::int64_t i = 0; i < events; ++i) {
      nat.register_event(
          "never", [cell = &cells[f]] { return *cell != 0; },
          [] { return core::EventUpdate{}; }, /*one_shot=*/false);
    }
    mat.consolidate_flow(fid);
    packets.push_back(net::make_tcp_packet(bench_tuple(fid), "payload"));
    packets.back().set_fid(fid);
  }
  const std::vector<std::uint32_t> order = visit_order(flows);
  std::size_t next = 0;
  for (auto _ : state) {
    auto result = mat.process(packets[order[next]]);
    benchmark::DoNotOptimize(result);
    if (++next == flows) next = 0;
  }
}
BENCHMARK(BM_GlobalMatProcess)
    ->ArgNames({"events", "flows"})
    ->ArgsProduct({{0, 1, 4}, {kOneFlow, kManyFlows}});

void BM_ConsolidateFlow(benchmark::State& state) {
  core::GlobalMat mat;
  const std::uint32_t fid = 9;
  core::FlowRecord& record = mat.open_flow(fid);
  core::SpeedyBoxContext nat{record, 0, fid};
  for (const auto& action : nat_lb_actions()) {
    nat.add_header_action(action);
  }
  core::SpeedyBoxContext monitor{record, 1, fid};
  monitor.add_state_function(core::StateFunction{
      [](net::Packet&, const net::ParsedPacket&) {},
      core::PayloadAccess::kIgnore, "count"});
  for (auto _ : state) {
    mat.consolidate_flow(fid);
  }
}
BENCHMARK(BM_ConsolidateFlow);

/// One SnortIds over the default rules inspecting one port-80 flow,
/// payload bytes in arg 0. Sparse rows (dense:0) carry lowercase filler
/// with one planted content, the pass rule's, so nothing accumulates in
/// the audit log; 192 B is Fig. 6's payload, where the matcher starts to
/// interleave. Dense rows (dense:1) carry back-to-back `ADMIN`, a hit
/// every five bytes, the matcher's worst case; each packet appends one
/// alert to the audit log.
void BM_SnortProcess(benchmark::State& state) {
  nf::SnortIds snort{nf::default_snort_rules()};
  std::string payload(static_cast<std::size_t>(state.range(0)), 'a');
  if (state.range(1) == 0) {
    util::Rng rng{0x5EED};
    for (char& c : payload) c = static_cast<char>('a' + rng.below(26));
    const std::string planted = "GET /healthz";
    std::memcpy(payload.data() + payload.size() / 4, planted.data(),
                planted.size());
  } else {
    const std::string admin = "ADMIN";
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = admin[i % admin.size()];
    }
  }
  net::Packet packet = net::make_tcp_packet(bench_tuple(), payload);
  for (auto _ : state) {
    snort.process(packet, nullptr);
    benchmark::DoNotOptimize(snort.pass_count());
    benchmark::DoNotOptimize(snort.alert_count());
  }
}
BENCHMARK(BM_SnortProcess)
    ->ArgNames({"payload", "dense"})
    ->Args({64, 0})
    ->Args({192, 0})
    ->Args({512, 0})
    ->Args({1460, 0})
    ->Args({512, 1})
    ->Args({1460, 1});

}  // namespace
}  // namespace speedybox

BENCHMARK_MAIN();
