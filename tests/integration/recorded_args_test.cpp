// Recorded args (Figure 2's arg_list) are prefetch hints only: the batch's
// warm pass prefetches the addresses a flow record names, and nothing else
// reads them. A test NF records one state function and one event whose
// condition and handler reach their per-flow cell through their captures,
// and names as args either that cell, nothing, or unrelated memory. Bytes,
// drop flags, events and the NF's counters must not depend on the choice.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "nf/network_function.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::same_bytes;
using speedybox::testing::tcp_packet;

enum class ArgsChoice { kCell, kNull, kUnrelated };

/// Counts each flow's packets and bytes; once a flow has
/// `kLimit` packets, its event installs a drop.
class CellCounter : public nf::NetworkFunction {
 public:
  static constexpr std::uint64_t kLimit = 5;

  explicit CellCounter(ArgsChoice choice)
      : NetworkFunction("cell-counter"), choice_(choice), decoy_(4096, 0) {}

  struct Cell {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    bool blocked = false;

    friend bool operator==(const Cell&, const Cell&) = default;
  };
  using Cells = std::unordered_map<net::FiveTuple, Cell, net::FiveTupleHash>;

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override {
    const auto parsed = parse_and_check(packet);
    if (!parsed) return;
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);
    Cell* cell = &cells_[tuple];  // unordered_map nodes never move
    if (cell->blocked) {
      packet.mark_dropped();
      return;
    }
    ++cell->packets;
    cell->bytes += packet.size();
    if (ctx == nullptr) return;

    const void* args = cell;
    if (choice_ == ArgsChoice::kNull) args = nullptr;
    if (choice_ == ArgsChoice::kUnrelated) {
      args = &decoy_[(tuple.hash() >> 3) % decoy_.size()];
    }
    ctx->add_header_action(core::HeaderAction::forward());
    core::localmat_add_SF(
        ctx,
        [cell](net::Packet& pkt, const net::ParsedPacket&) {
          ++cell->packets;
          cell->bytes += pkt.size();
        },
        core::PayloadAccess::kIgnore, "cell-counter.count", args);
    core::register_event(
        ctx, "cell-counter.limit",
        [cell] { return cell->packets >= kLimit; },
        [cell] {
          cell->blocked = true;
          core::EventUpdate update;
          update.header_actions = {core::HeaderAction::drop()};
          return update;
        },
        /*one_shot=*/true, args);
  }

  const Cells& cells() const { return cells_; }

 private:
  ArgsChoice choice_;
  Cells cells_;
  std::vector<std::uint64_t> decoy_;
};

struct ArgsRun {
  std::vector<net::Packet> outputs;
  std::uint64_t events = 0;
  CellCounter::Cells cells;
};

ArgsRun run_with(ArgsChoice choice, std::size_t batch_size,
                 const std::vector<net::Packet>& packets) {
  ServiceChain chain;
  const auto& counter = chain.emplace_nf<CellCounter>(choice);
  RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = batch_size;
  ChainRunner runner{chain, config};
  ArgsRun run;
  run.events = runner.run(packets, &run.outputs).events_triggered;
  run.cells = counter.cells();
  return run;
}

TEST(RecordedArgs, NullOrUnrelatedArgsChangeNothing) {
  // Six flows, ten packets each, interleaved: every flow crosses the limit
  // partway through, inside a burst at batch 32.
  std::vector<net::Packet> packets;
  for (std::uint32_t round = 0; round < 10; ++round) {
    for (std::uint32_t flow = 0; flow < 6; ++flow) {
      packets.push_back(tcp_packet(flow, std::string(round + flow, 'x')));
    }
  }
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{32}}) {
    const ArgsRun cell = run_with(ArgsChoice::kCell, batch_size, packets);
    ASSERT_EQ(cell.events, 6u);
    for (const ArgsChoice choice :
         {ArgsChoice::kNull, ArgsChoice::kUnrelated}) {
      const ArgsRun other = run_with(choice, batch_size, packets);
      EXPECT_EQ(other.events, cell.events) << batch_size;
      EXPECT_EQ(other.cells, cell.cells) << batch_size;
      ASSERT_EQ(other.outputs.size(), cell.outputs.size());
      for (std::size_t i = 0; i < cell.outputs.size(); ++i) {
        EXPECT_EQ(other.outputs[i].dropped(), cell.outputs[i].dropped())
            << "batch " << batch_size << " packet " << i;
        EXPECT_TRUE(same_bytes(other.outputs[i], cell.outputs[i]))
            << "batch " << batch_size << " packet " << i;
      }
    }
  }
}

}  // namespace
}  // namespace speedybox::runtime
