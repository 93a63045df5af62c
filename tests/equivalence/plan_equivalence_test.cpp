// The refactor's safety net: executors built from a DeploymentPlan must be
// BYTE-IDENTICAL to executors built by hand with the direct NF constructor
// API, on both §VII-C chains, across the runner, sharded and pipeline
// shapes. The hand-built chains below are the ONE deliberate duplication of
// the canonical specs left in the tree — they are the ground truth this
// test holds plan::build() against (everything else builds from
// plan::vii_c_chain*()).
//
// Also: a plan that survives a JSON round-trip builds the same bytes (the
// serialized form is the deployment), and the threaded pipeline — in both
// modes, with one NF per stage and with the plan-driven fused segments
// ({2,2} / {1,2} / one segment) — matches the same-mode runner
// flow-for-flow.
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "nf/ip_filter.hpp"
#include "nf/maglev_lb.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "nf/snort_rule.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::chain1_workload;
using speedybox::testing::chain2_workload;
using speedybox::testing::same_bytes;

// --- Hand-built ground truth (see the file comment) -----------------------

std::unique_ptr<ServiceChain> hand_chain1() {
  auto chain = std::make_unique<ServiceChain>("chain1_gateway");
  chain->emplace_nf<nf::MazuNat>();
  std::vector<nf::Backend> backends;
  for (int i = 0; i < 5; ++i) {
    backends.push_back({"backend-" + std::to_string(i),
                        net::Ipv4Addr{10, 2, 0,
                                      static_cast<std::uint8_t>(10 + i)},
                        static_cast<std::uint16_t>(8000 + i), true});
  }
  chain->emplace_nf<nf::MaglevLb>(std::move(backends), std::size_t{1021});
  chain->emplace_nf<nf::Monitor>();
  chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{});
  return chain;
}

std::unique_ptr<ServiceChain> hand_chain2() {
  auto chain = std::make_unique<ServiceChain>("chain2_ids");
  chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{
      nf::AclRule::drop_dst_prefix(net::Ipv4Addr{10, 1, 3, 0}, 24)});
  chain->emplace_nf<nf::SnortIds>(nf::default_snort_rules());
  chain->emplace_nf<nf::Monitor>();
  return chain;
}

std::vector<net::Packet> materialize_all(const trace::Workload& workload) {
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

/// Ordered, input-indexed run through a ChainRunner (hand-built or
/// plan-built): per-packet outcome flags plus the post-chain bytes.
struct IndexedRun {
  std::vector<PacketOutcome> outcomes;
  std::vector<net::Packet> packets;
};

IndexedRun drive_runner(ChainRunner& runner,
                        const std::vector<net::Packet>& packets) {
  IndexedRun run;
  run.outcomes.reserve(packets.size());
  run.packets.reserve(packets.size());
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    run.outcomes.push_back(runner.process_packet(packet));
    run.packets.push_back(std::move(packet));
  }
  return run;
}

void expect_runs_identical(const IndexedRun& a, const IndexedRun& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i].initial, b.outcomes[i].initial) << "packet " << i;
    ASSERT_EQ(a.outcomes[i].dropped, b.outcomes[i].dropped) << "packet " << i;
    ASSERT_EQ(a.outcomes[i].fast_path, b.outcomes[i].fast_path)
        << "packet " << i;
    ASSERT_TRUE(same_bytes(a.packets[i], b.packets[i]))
        << "packet " << i << " bytes differ";
  }
}

using DeploymentPlan = plan::DeploymentPlan;

DeploymentPlan runner_plan(const plan::ChainSpec& spec) {
  DeploymentPlan deployment;
  deployment.chain = spec;
  deployment.executor = plan::ExecutorKind::kRunner;
  return deployment;
}

struct ChainCase {
  const char* label;
  plan::ChainSpec (*spec)();
  std::unique_ptr<ServiceChain> (*hand)();
  trace::Workload (*workload)();
};

const ChainCase kCases[] = {
    {"chain1", plan::vii_c_chain1, hand_chain1, chain1_workload},
    {"chain2", plan::vii_c_chain2, hand_chain2, chain2_workload},
};

TEST(PlanEquivalence, RunnerMatchesHandBuiltOnBothChains) {
  for (const ChainCase& test_case : kCases) {
    for (const bool speedybox : {false, true}) {
      SCOPED_TRACE(std::string(test_case.label) +
                   (speedybox ? "/speedybox" : "/original"));
      const std::vector<net::Packet> packets =
          materialize_all(test_case.workload());

      const auto hand = test_case.hand();
      ChainRunner hand_runner{
          *hand, {platform::PlatformKind::kBess, speedybox}};
      const IndexedRun hand_run = drive_runner(hand_runner, packets);

      DeploymentPlan deployment = runner_plan(test_case.spec());
      deployment.speedybox = speedybox;
      auto built = plan::build(deployment);
      auto& plan_runner = dynamic_cast<ChainRunner&>(*built.executor);
      const IndexedRun plan_run = drive_runner(plan_runner, packets);

      expect_runs_identical(hand_run, plan_run);
      EXPECT_EQ(plan_runner.stats().drops, hand_runner.stats().drops);
    }
  }
}

TEST(PlanEquivalence, ShardedMatchesHandBuiltOnBothChains) {
  for (const ChainCase& test_case : kCases) {
    for (const std::size_t shards : {2u, 4u}) {
      SCOPED_TRACE(std::string(test_case.label) + "/shards=" +
                   std::to_string(shards));
      const std::vector<net::Packet> packets =
          materialize_all(test_case.workload());

      auto hand_proto = test_case.hand();
      ShardedRuntime hand_runtime{
          *hand_proto, shards, {platform::PlatformKind::kBess, true}};
      const ShardedRunResult hand_result = hand_runtime.run_packets(packets);

      DeploymentPlan deployment = runner_plan(test_case.spec());
      deployment.executor = plan::ExecutorKind::kSharded;
      deployment.shards = shards;
      auto built = plan::build(deployment);
      std::vector<net::Packet> plan_packets;
      built.executor->run(packets, &plan_packets);
      const ShardedRunResult& plan_result =
          dynamic_cast<ShardedRuntime&>(*built.executor).last_result();

      ASSERT_EQ(plan_result.outcomes.size(), hand_result.outcomes.size());
      for (std::size_t i = 0; i < hand_result.outcomes.size(); ++i) {
        ASSERT_EQ(plan_result.outcomes[i].dropped,
                  hand_result.outcomes[i].dropped)
            << "packet " << i;
        ASSERT_TRUE(same_bytes(plan_packets[i], hand_result.packets[i]))
            << "packet " << i << " bytes differ";
      }
      EXPECT_EQ(plan_result.stats.drops, hand_result.stats.drops);
    }
  }
}

/// Group surviving packets into per-flow ordered byte sequences — the
/// pipeline's guarantee is per-flow FIFO, not global order.
using FlowOutputs =
    std::unordered_map<net::FiveTuple,
                       std::vector<std::vector<std::uint8_t>>,
                       net::FiveTupleHash>;

FlowOutputs group_by_flow(const std::vector<net::Packet>& packets) {
  FlowOutputs flows;
  for (const net::Packet& packet : packets) {
    const auto parsed = net::parse_packet(packet);
    if (!parsed.has_value()) continue;
    flows[net::extract_five_tuple(packet, *parsed)].emplace_back(
        packet.bytes().begin(), packet.bytes().end());
  }
  return flows;
}

void expect_flows_identical(const FlowOutputs& expected,
                            const FlowOutputs& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [tuple, sequence] : expected) {
    const auto it = actual.find(tuple);
    ASSERT_NE(it, actual.end()) << tuple.to_string();
    ASSERT_EQ(it->second, sequence) << tuple.to_string();
  }
}

TEST(PlanEquivalence, PipelineAndFusedSegmentsMatchTheReference) {
  // Reference: the hand-built single-threaded runner in the same mode.
  // Against it: the plan-built pipeline with default (one NF per stage)
  // segments, and with the fused shapes a planner would emit — in original
  // mode (plain descriptors through every NF core) and SpeedyBox mode
  // (manager fast path). Every cell must agree flow-for-flow,
  // byte-for-byte, with equal drop counts.
  const std::vector<std::vector<plan::SegmentSpec>> chain1_segments = {
      {}, {{2, false}, {2, false}}, {{2, true}, {2, true}}};
  const std::vector<std::vector<plan::SegmentSpec>> chain2_segments = {
      {}, {{1, false}, {2, false}}, {{3, true}}};

  for (const ChainCase& test_case : kCases) {
    const auto& segment_shapes =
        std::string(test_case.label) == "chain1" ? chain1_segments
                                                 : chain2_segments;
    const std::vector<net::Packet> packets =
        materialize_all(test_case.workload());

    for (const bool speedybox : {false, true}) {
      auto hand = test_case.hand();
      ChainRunner reference{*hand,
                            {platform::PlatformKind::kBess, speedybox}};
      std::uint64_t reference_drops = 0;
      std::vector<net::Packet> reference_out;
      for (const net::Packet& original : packets) {
        net::Packet packet = original;
        packet.reset_metadata();
        if (reference.process_packet(packet).dropped) {
          ++reference_drops;
        } else {
          reference_out.push_back(std::move(packet));
        }
      }
      const FlowOutputs reference_flows = group_by_flow(reference_out);

      for (const auto& segments : segment_shapes) {
        SCOPED_TRACE(std::string(test_case.label) +
                     (speedybox ? "/speedybox" : "/original") +
                     "/segments=" + std::to_string(segments.size()));
        DeploymentPlan deployment = runner_plan(test_case.spec());
        deployment.executor = plan::ExecutorKind::kPipeline;
        deployment.speedybox = speedybox;
        deployment.segments = segments;
        auto built = plan::build(deployment);
        std::vector<net::Packet> out;
        const RunStats& stats = built.executor->run(packets, &out);
        EXPECT_EQ(stats.packets, packets.size());
        EXPECT_EQ(stats.drops, reference_drops);
        expect_flows_identical(reference_flows, group_by_flow(out));
      }
    }
  }
}

TEST(PlanEquivalence, JsonRoundTripPreservesBehavior) {
  // The serialized plan IS the deployment: parse(dump()) builds an
  // executor producing the same bytes as the original plan object.
  const std::vector<net::Packet> packets =
      materialize_all(chain2_workload());
  DeploymentPlan deployment = runner_plan(plan::vii_c_chain2());

  auto direct = plan::build(deployment);
  const IndexedRun direct_run =
      drive_runner(dynamic_cast<ChainRunner&>(*direct.executor), packets);

  auto roundtripped = plan::build(DeploymentPlan::parse(deployment.dump()));
  const IndexedRun roundtrip_run = drive_runner(
      dynamic_cast<ChainRunner&>(*roundtripped.executor), packets);

  expect_runs_identical(direct_run, roundtrip_run);
}

}  // namespace
}  // namespace speedybox::runtime
