// The streaming Executor contract on every shape — the runner, the sharded
// runtime at 2 shards and the threaded pipeline, each in original and
// SpeedyBox mode, on §VII-C chain 1 traffic: packets submitted in uneven
// bursts come out as run(packets, &outputs) gives them, with the same
// counters, and a run that asks for no packets back gets none.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::same_bytes;

enum class Shape { kRunner, kSharded, kPipeline };

std::unique_ptr<Executor> make_executor(Shape shape, ServiceChain& chain,
                                        bool speedybox) {
  const RunConfig config{platform::PlatformKind::kBess, speedybox};
  switch (shape) {
    case Shape::kRunner:
      return std::make_unique<ChainRunner>(chain, config);
    case Shape::kSharded:
      return std::make_unique<ShardedRuntime>(chain, 2, config);
    case Shape::kPipeline:
      return std::make_unique<SpeedyBoxPipeline>(chain, config);
  }
  return nullptr;
}

std::vector<net::Packet> chain1_packets() {
  const trace::Workload workload = speedybox::testing::chain1_workload();
  std::vector<net::Packet> packets;
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

/// One run over a fresh chain 1. `bursts` empty: run(packets, &outputs).
/// Otherwise the packets are submitted in bursts of those sizes in turn,
/// with `keep`, and drain() ends the run.
struct Drained {
  std::vector<net::Packet> outputs;
  RunStats stats;
  bool kept_outcomes = false;  // sharded: last_result() holds outcomes
};

Drained drive(Shape shape, bool speedybox,
              const std::vector<net::Packet>& packets,
              const std::vector<std::size_t>& bursts, bool keep = true) {
  auto chain = speedybox::testing::make_chain1();
  const std::unique_ptr<Executor> executor =
      make_executor(shape, *chain, speedybox);
  Drained run;
  if (bursts.empty()) {
    run.stats = executor->run(packets, &run.outputs);
  } else {
    std::size_t offset = 0;
    for (std::size_t turn = 0; offset < packets.size(); ++turn) {
      const std::size_t count =
          std::min(bursts[turn % bursts.size()], packets.size() - offset);
      const auto first = packets.begin() + static_cast<std::ptrdiff_t>(offset);
      std::vector<net::Packet> burst(
          first, first + static_cast<std::ptrdiff_t>(count));
      executor->submit(burst, keep);
      offset += count;
    }
    // drain() replaces what the vector held.
    run.outputs.emplace_back();
    run.stats = executor->drain(&run.outputs);
  }
  if (const auto* sharded = dynamic_cast<ShardedRuntime*>(executor.get())) {
    run.kept_outcomes = !sharded->last_result().outcomes.empty();
  }
  return run;
}

using FlowOutputs =
    std::unordered_map<net::FiveTuple, std::vector<std::vector<std::uint8_t>>,
                       net::FiveTupleHash>;

FlowOutputs per_flow(const std::vector<net::Packet>& packets) {
  FlowOutputs flows;
  for (const net::Packet& packet : packets) {
    const auto parsed = net::parse_packet(packet);
    EXPECT_TRUE(parsed.has_value());
    if (!parsed) continue;
    flows[net::extract_five_tuple(packet, *parsed)].emplace_back(
        packet.bytes().begin(), packet.bytes().end());
  }
  return flows;
}

class ExecutorContract
    : public ::testing::TestWithParam<std::tuple<Shape, bool>> {
 protected:
  Shape shape() const { return std::get<0>(GetParam()); }
  bool speedybox() const { return std::get<1>(GetParam()); }
};

TEST_P(ExecutorContract, UnevenBurstsMatchRun) {
  const std::vector<net::Packet> packets = chain1_packets();
  const Drained expected = drive(shape(), speedybox(), packets, {});
  const Drained streamed =
      drive(shape(), speedybox(), packets, {1, 7, 32, 1000});

  if (shape() == Shape::kPipeline) {
    // Completion order: per-flow FIFO only, delivered packets only.
    ASSERT_EQ(streamed.outputs.size(), expected.outputs.size());
    EXPECT_EQ(per_flow(streamed.outputs), per_flow(expected.outputs));
  } else {
    // Input order, dropped packets included.
    ASSERT_EQ(streamed.outputs.size(), packets.size());
    ASSERT_EQ(expected.outputs.size(), packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      ASSERT_TRUE(same_bytes(streamed.outputs[i], expected.outputs[i]))
          << "packet " << i;
      ASSERT_EQ(streamed.outputs[i].dropped(), expected.outputs[i].dropped())
          << "packet " << i;
    }
  }
  EXPECT_EQ(streamed.stats.packets, packets.size());
  EXPECT_EQ(streamed.stats.packets, expected.stats.packets);
  EXPECT_EQ(streamed.stats.drops, expected.stats.drops);
  EXPECT_EQ(streamed.stats.events_triggered, expected.stats.events_triggered);
  EXPECT_EQ(streamed.stats.overload.faulted, expected.stats.overload.faulted);
  EXPECT_EQ(streamed.stats.overload.offered, expected.stats.overload.offered);
}

TEST_P(ExecutorContract, NothingKeptUnlessAsked) {
  const std::vector<net::Packet> packets = chain1_packets();
  const Drained kept = drive(shape(), speedybox(), packets, {32});
  const Drained unkept =
      drive(shape(), speedybox(), packets, {32}, /*keep=*/false);

  EXPECT_FALSE(kept.outputs.empty());
  EXPECT_TRUE(unkept.outputs.empty()) << "drain hands back no packet";
  EXPECT_FALSE(unkept.kept_outcomes) << "and no outcome";
  EXPECT_EQ(kept.kept_outcomes, shape() == Shape::kSharded);
  EXPECT_EQ(unkept.stats.packets, kept.stats.packets);
  EXPECT_EQ(unkept.stats.drops, kept.stats.drops);
}

std::string shape_name(
    const ::testing::TestParamInfo<ExecutorContract::ParamType>& info) {
  static const char* const kShapes[] = {"Runner", "Sharded2", "Pipeline"};
  return std::string(kShapes[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "SpeedyBox" : "Original");
}

INSTANTIATE_TEST_SUITE_P(
    EveryShape, ExecutorContract,
    ::testing::Combine(::testing::Values(Shape::kRunner, Shape::kSharded,
                                         Shape::kPipeline),
                       ::testing::Bool()),
    shape_name);

}  // namespace
}  // namespace speedybox::runtime
