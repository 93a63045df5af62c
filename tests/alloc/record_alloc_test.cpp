// The flow-record machinery allocates nothing per flow. This binary
// replaces the global operator new to count allocations, which is why it is
// a test target of its own.
//
// The chain is made of test NFs that allocate nothing themselves and record
// the way the first §VII-C chain's NFs do: two field writes and a teardown
// hook capturing [this, tuple] (MazuNat), a state function capturing
// [this, cell], a persistent event whose condition never holds and a
// teardown hook (MaglevLb). After a warm-up pass has grown every table and
// record array, a pass of fresh flows — recording, consolidation, the first
// fast-path packet's patch compile, the fast path, teardown and the reuse of
// the freed FIDs — must make no allocation at all in SpeedyBox mode. On the
// threaded pipeline the manager's heap copy of each admitted packet is the
// one allocation a flow may make.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/header_action.hpp"
#include "net/packet_builder.hpp"
#include "nf/network_function.hpp"
#include "runtime/chain.hpp"
#include "runtime/runner.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "test_helpers.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* memory = align > alignof(std::max_align_t)
                     ? std::aligned_alloc(align, (size + align - 1) / align *
                                                     align)
                     : std::malloc(size);
  if (memory == nullptr) throw std::bad_alloc{};
  return memory;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete[](void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }
void operator delete[](void* memory, std::size_t) noexcept {
  std::free(memory);
}
void operator delete(void* memory, std::align_val_t) noexcept {
  std::free(memory);
}
void operator delete[](void* memory, std::align_val_t) noexcept {
  std::free(memory);
}
void operator delete(void* memory, std::size_t, std::align_val_t) noexcept {
  std::free(memory);
}
void operator delete[](void* memory, std::size_t, std::align_val_t) noexcept {
  std::free(memory);
}

namespace speedybox {
namespace {

using core::HeaderAction;
using net::HeaderField;

/// Rewrites the source address and port and keeps nothing per flow but a
/// release count: MazuNat's recording without its port tables.
class RewriteNf : public nf::NetworkFunction {
 public:
  RewriteNf() : NetworkFunction("rewrite") {}

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override {
    count_packet();
    const auto parsed = parse_and_check(packet);
    if (!parsed) return;
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);
    const std::array actions{
        HeaderAction::modify(HeaderField::kSrcIp, 0x0A630001),
        HeaderAction::modify(HeaderField::kSrcPort,
                             40000 + tuple.src_port % 1000)};
    for (const HeaderAction& action : actions) {
      core::apply_action_baseline(action, packet);
    }
    if (ctx != nullptr) {
      for (const HeaderAction& action : actions) {
        ctx->add_header_action(action);
      }
      ctx->on_teardown([this, tuple] { release(tuple); });
    }
  }

  std::uint64_t released() const noexcept { return released_; }

 private:
  void release(const net::FiveTuple& tuple) noexcept {
    ++released_;
    last_released_ = tuple;
  }

  std::uint64_t released_ = 0;
  net::FiveTuple last_released_;
};

/// Counts packets into a fixed array of cells: MaglevLb's recording — a
/// state function bound to the flow's cell, a persistent event reading the
/// same cell, a teardown hook — over state that never allocates.
class CellNf : public nf::NetworkFunction {
 public:
  CellNf() : NetworkFunction("cells") {}

  struct Cell {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override {
    count_packet();
    const auto parsed = parse_and_check(packet);
    if (!parsed) return;
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);
    Cell* cell = &cells_[tuple.hash() % cells_.size()];
    add(*cell, packet);
    if (ctx == nullptr) return;
    core::localmat_add_SF(
        ctx,
        [this, cell](net::Packet& pkt, const net::ParsedPacket&) {
          add(*cell, pkt);
        },
        core::PayloadAccess::kIgnore, "cells.count", cell);
    core::register_event(
        ctx, "cells.limit", [cell] { return cell->packets == UINT64_MAX; },
        [] { return core::EventUpdate{}; }, /*one_shot=*/false, cell);
    ctx->on_teardown([this, tuple] { closed_ += tuple.src_port != 0; });
  }

  std::uint64_t total_packets() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) total += cell.packets;
    return total;
  }
  std::uint64_t closed() const noexcept { return closed_; }

 private:
  static void add(Cell& cell, const net::Packet& packet) noexcept {
    ++cell.packets;
    cell.bytes += packet.size();
  }

  std::array<Cell, 64> cells_{};
  std::uint64_t closed_ = 0;
};

constexpr std::uint32_t kFlows = 16;
constexpr std::uint32_t kPacketsPerFlow = 4;

/// One pass: kFlows fresh flows, live at once, their packets interleaved
/// round-robin; each flow's last packet carries FIN.
std::vector<net::Packet> pass_packets(std::uint32_t first_flow) {
  std::vector<net::Packet> packets;
  for (std::uint32_t round = 0; round < kPacketsPerFlow; ++round) {
    const std::uint8_t flags = round + 1 == kPacketsPerFlow
                                   ? net::kTcpFlagFin | net::kTcpFlagAck
                                   : net::kTcpFlagAck;
    for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
      packets.push_back(net::make_tcp_packet(
          testing::tuple_n(first_flow + flow), "payload", flags));
    }
  }
  return packets;
}

TEST(RecordAllocations, AFreshPassOfFlowsAllocatesNothing) {
  runtime::ServiceChain chain;
  const RewriteNf& rewrite = chain.emplace_nf<RewriteNf>();
  const CellNf& cells = chain.emplace_nf<CellNf>();
  runtime::RunConfig config;
  config.speedybox = true;
  config.batch_size = 32;
  runtime::ChainRunner runner{chain, config};

  std::vector<net::Packet> warm_up = pass_packets(0);
  std::vector<net::Packet> fresh = pass_packets(kFlows);
  const std::uint64_t start = g_allocations.load();
  runner.submit(warm_up, /*keep=*/false);
  // The warm-up grows the tables, which the count must see.
  ASSERT_GT(g_allocations.load(), start);
  ASSERT_EQ(chain.classifier().active_flows(), 0u);

  const std::uint64_t before = g_allocations.load();
  runner.submit(fresh, /*keep=*/false);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u);
  // The pass did its work: every flow recorded once, ran its remaining
  // packets on the fast path, tore down and gave its FID back.
  const runtime::RunStats& stats = runner.stats();
  EXPECT_EQ(stats.packets, 2u * kFlows * kPacketsPerFlow);
  EXPECT_EQ(chain.classifier().initial_count(), 2u * kFlows);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
  EXPECT_EQ(chain.global_mat().open_records(), 0u);
  EXPECT_EQ(rewrite.released(), 2u * kFlows);
  EXPECT_EQ(cells.closed(), 2u * kFlows);
  EXPECT_EQ(cells.total_packets(), 2u * kFlows * kPacketsPerFlow);
  EXPECT_EQ(chain.global_mat().events_triggered(), 0u);
  EXPECT_GT(chain.global_mat().checks_performed(), 0u);
}

/// One packet per flow, flows `first_flow` on, with `flags`.
std::vector<net::Packet> one_packet_flows(std::uint32_t first_flow,
                                          std::uint32_t count,
                                          std::uint8_t flags) {
  std::vector<net::Packet> packets;
  for (std::uint32_t flow = 0; flow < count; ++flow) {
    packets.push_back(net::make_tcp_packet(
        testing::tuple_n(first_flow + flow), "payload", flags));
  }
  return packets;
}

TEST(RecordAllocations, APipelineFlowAllocatesOnlyItsPacket) {
  // Rings of 64 keep at most ~256 descriptors, and so flows, in flight.
  // The warm-up holds kWarmFlows flows open at once before closing them,
  // which grows the manager's tables and the flow records well past what
  // the measured pass can reach: its single-packet FIN flows on fresh
  // tuples, none of which ever holds a packet. CellNf stays out: its event
  // reads cells other flows' state functions write on the NF core, which
  // the pipeline's concurrency contract requires an NF to lock.
  constexpr std::uint32_t kWarmFlows = 2048;
  constexpr std::uint32_t kPipelineFlows = 512;
  constexpr std::uint8_t kFin = net::kTcpFlagFin | net::kTcpFlagAck;
  runtime::ServiceChain chain;
  const RewriteNf& first = chain.emplace_nf<RewriteNf>();
  const RewriteNf& second = chain.emplace_nf<RewriteNf>();
  runtime::RunConfig config;
  config.speedybox = true;
  config.batch_size = 32;
  runtime::SpeedyBoxPipeline pipeline{chain, config, /*ring_capacity=*/64};

  std::vector<net::Packet> open =
      one_packet_flows(0, kWarmFlows, net::kTcpFlagAck);
  std::vector<net::Packet> close = one_packet_flows(0, kWarmFlows, kFin);
  std::vector<net::Packet> fresh =
      one_packet_flows(kWarmFlows, kPipelineFlows, kFin);
  pipeline.submit(open, /*keep=*/false);
  pipeline.submit(close, /*keep=*/false);

  const std::uint64_t before = g_allocations.load();
  pipeline.submit(fresh, /*keep=*/false);
  const runtime::RunStats& stats = pipeline.drain(nullptr);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_LE(allocations, kPipelineFlows);
  EXPECT_EQ(stats.packets, 2u * kWarmFlows + kPipelineFlows);
  EXPECT_EQ(chain.classifier().initial_count(), kWarmFlows + kPipelineFlows);
  EXPECT_EQ(chain.classifier().active_flows(), 0u);
  EXPECT_EQ(chain.global_mat().open_records(), 0u);
  // Every flow's teardown hooks ran on both NF cores.
  EXPECT_EQ(first.released(), kWarmFlows + kPipelineFlows);
  EXPECT_EQ(second.released(), kWarmFlows + kPipelineFlows);
}

}  // namespace
}  // namespace speedybox
