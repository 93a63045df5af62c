// Conservation property of the overload-control data path (DESIGN.md §9):
// for every drop policy, on both §VII-C real-world chains, at 1 and 4
// shards as well as the single-threaded runner and the threaded pipeline in
// both modes, the counters balance EXACTLY —
//
//   offered  == admitted + shed_watermark + shed_early_drop
//   admitted == delivered + drops + faulted
//
// where delivered is counted from the actual output packets, not from a
// counter. Every executor is built with the gate in its RunConfig, the one
// way to install it. And with overload control disabled, the path is
// byte-identical to a run that never heard of the subsystem, with every
// overload counter at zero.
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "runtime/executor.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "test_helpers.hpp"
#include "trace/payload_synth.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::make_chain1;
using speedybox::testing::make_chain2;
using speedybox::testing::same_bytes;

std::vector<net::Packet> chain1_packets() {
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 80;
  config.seed = 20190708;
  const trace::Workload workload = make_datacenter_workload(config);
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

std::vector<net::Packet> chain2_packets() {
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 60;
  config.seed = 5550123;
  trace::Workload workload = make_datacenter_workload(config);
  trace::PayloadSynthConfig synth;
  synth.match_fraction = 0.25;
  plant_rule_contents(workload, trace::default_snort_rules(), synth);
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

/// A RunConfig with the gate on at 2x offered load under `policy`.
RunConfig overload_at_2x(platform::PlatformKind platform, bool speedybox,
                         DropPolicy policy) {
  RunConfig config{platform, speedybox};
  config.overload.enabled = true;
  config.overload.policy = policy;
  config.overload.offered_load = 2.0;
  // Small enough that these workloads (a few thousand packets) actually
  // reach the watermarks and shed.
  config.overload.queue_capacity = 256;
  return config;
}

/// Conservation over the executor's own counters plus `delivered` counted
/// from the actual outputs (never trust a counter to check a counter).
void expect_conserved(const RunStats& stats, std::size_t offered_inputs,
                      std::uint64_t delivered) {
  const OverloadStats& overload = stats.overload;
  EXPECT_EQ(overload.offered, offered_inputs)
      << "every input packet is offered";
  EXPECT_EQ(overload.offered,
            overload.admitted + overload.shed_watermark +
                overload.shed_early_drop)
      << "arrival conservation";
  EXPECT_EQ(overload.admitted, stats.packets)
      << "admitted packets are exactly the chain's packets";
  EXPECT_EQ(stats.packets, delivered + stats.drops + overload.faulted)
      << "admitted == delivered + drops + faulted";
}

struct Scenario {
  const char* chain_name;
  std::vector<net::Packet> (*packets)();
  std::unique_ptr<ServiceChain> (*factory)();
};

const Scenario kScenarios[] = {
    {"chain1", chain1_packets, make_chain1},
    {"chain2", chain2_packets, make_chain2},
};

constexpr DropPolicy kPolicies[] = {
    DropPolicy::kTailDrop,
    DropPolicy::kPerFlowFair,
    DropPolicy::kSloEarlyDrop,
};

/// The executor shapes that share one ingress gate (admit_arrival): the
/// runner and the pipeline in both modes (manager-side gate, real
/// first-ring pressure OR'd in; in original mode there is no Global MAT, so
/// slo-early-drop degenerates to tail-drop). Either way the outputs not
/// marked dropped are the delivered packets.
struct GateShape {
  const char* name;
  std::unique_ptr<Executor> (*make)(ServiceChain& chain, DropPolicy policy);
  /// The runner's outputs keep dropped and shed packets in input order;
  /// the threaded shapes omit them.
  bool outputs_keep_dropped;
};

const GateShape kGateShapes[] = {
    {"runner",
     [](ServiceChain& chain, DropPolicy policy) -> std::unique_ptr<Executor> {
       return std::make_unique<ChainRunner>(
           chain, overload_at_2x(platform::PlatformKind::kBess, true, policy));
     },
     true},
    {"pipeline/speedybox",
     [](ServiceChain& chain, DropPolicy policy) -> std::unique_ptr<Executor> {
       return std::make_unique<SpeedyBoxPipeline>(
           chain, overload_at_2x(platform::PlatformKind::kOnvm, true, policy));
     },
     false},
    {"pipeline/original",
     [](ServiceChain& chain, DropPolicy policy) -> std::unique_ptr<Executor> {
       return std::make_unique<SpeedyBoxPipeline>(
           chain,
           overload_at_2x(platform::PlatformKind::kOnvm, false, policy));
     },
     false},
};

TEST(OverloadConservation, GateShapesAllPoliciesBothChains) {
  for (const Scenario& scenario : kScenarios) {
    const std::vector<net::Packet> packets = scenario.packets();
    for (const GateShape& shape : kGateShapes) {
      for (const DropPolicy policy : kPolicies) {
        SCOPED_TRACE(std::string(scenario.chain_name) + "/" + shape.name +
                     "/" + std::string(drop_policy_name(policy)));
        auto chain = scenario.factory();
        const std::unique_ptr<Executor> executor = shape.make(*chain, policy);
        std::vector<net::Packet> outputs;
        const RunStats& stats = executor->run(packets, &outputs);
        if (shape.outputs_keep_dropped) {
          ASSERT_EQ(outputs.size(), packets.size())
              << "runner outputs keep input order, dropped/shed included";
        }
        std::uint64_t delivered = 0;
        for (const net::Packet& packet : outputs) {
          if (!packet.dropped()) ++delivered;
        }
        expect_conserved(stats, packets.size(), delivered);
        EXPECT_GT(stats.overload.shed_total(), 0u)
            << "a 2x offered load must actually shed on these workloads";
      }
    }
  }
}

TEST(OverloadConservation, ShardedAllPoliciesBothChains) {
  for (const Scenario& scenario : kScenarios) {
    const std::vector<net::Packet> packets = scenario.packets();
    for (const DropPolicy policy : kPolicies) {
      for (const std::size_t shards : {1u, 4u}) {
        SCOPED_TRACE(std::string(scenario.chain_name) + "/" +
                     std::string(drop_policy_name(policy)) + "/shards=" +
                     std::to_string(shards));
        auto prototype = scenario.factory();
        ShardedRuntime runtime{
            *prototype, shards,
            overload_at_2x(platform::PlatformKind::kBess, true, policy)};
        std::vector<net::Packet> outputs;  // keeps the outcomes too
        runtime.run(packets, &outputs);
        const ShardedRunResult& result = runtime.last_result();
        ASSERT_EQ(result.outcomes.size(), packets.size());
        std::uint64_t delivered = 0;
        for (const PacketOutcome& outcome : result.outcomes) {
          if (!outcome.dropped) ++delivered;
        }
        expect_conserved(result.stats, packets.size(), delivered);
      }
    }
  }
}

/// The four adversarial scenario generators (benchmark matrix, DESIGN.md
/// §11) obey the same conservation identities on both §VII-C chains at
/// shards {1, 4}. Policies rotate per (chain, workload, shards) cell so
/// every policy is exercised without the full cross product.
TEST(OverloadConservation, ScenarioGeneratorsConserveOnBothChains) {
  const std::vector<std::string> scenarios = trace::named_scenarios();
  ASSERT_GE(scenarios.size(), 4u);
  std::size_t cell = 0;
  for (const Scenario& scenario : kScenarios) {
    for (const std::string& name : scenarios) {
      trace::ScenarioScale scale;
      scale.flows = 48;  // bounded runtime: small but sheds at 2x
      auto workload = trace::make_named_scenario(name, scale);
      ASSERT_TRUE(workload.has_value()) << name;
      if (scenario.factory == make_chain2) {
        trace::PayloadSynthConfig synth;
        synth.match_fraction = 0.25;
        plant_rule_contents(*workload, trace::default_snort_rules(), synth);
      }
      std::vector<net::Packet> packets;
      packets.reserve(workload->packet_count());
      for (std::size_t i = 0; i < workload->packet_count(); ++i) {
        packets.push_back(workload->materialize(i));
      }
      for (const std::size_t shards : {1u, 4u}) {
        const DropPolicy policy =
            kPolicies[cell++ % std::size(kPolicies)];
        SCOPED_TRACE(std::string(scenario.chain_name) + "/" + name +
                     "/" + std::string(drop_policy_name(policy)) +
                     "/shards=" + std::to_string(shards));
        auto prototype = scenario.factory();
        ShardedRuntime runtime{
            *prototype, shards,
            overload_at_2x(platform::PlatformKind::kBess, true, policy)};
        std::vector<net::Packet> outputs;  // keeps the outcomes too
        runtime.run(packets, &outputs);
        const ShardedRunResult& result = runtime.last_result();
        ASSERT_EQ(result.outcomes.size(), packets.size());
        std::uint64_t delivered = 0;
        for (const PacketOutcome& outcome : result.outcomes) {
          if (!outcome.dropped) ++delivered;
        }
        expect_conserved(result.stats, packets.size(), delivered);
      }
    }
  }
}

TEST(OverloadConservation, SloEarlyDropActuallyShedsDoomedFlows) {
  // Chain 2's ACL consolidates 10.1.3/24 flows to pure-drop rules; under
  // slo-early-drop their subsequent packets must shed at ingress.
  const std::vector<net::Packet> packets = chain2_packets();
  auto chain = make_chain2();
  ChainRunner runner{*chain,
                     overload_at_2x(platform::PlatformKind::kBess, true,
                                    DropPolicy::kSloEarlyDrop)};
  const RunStats& stats = runner.run(packets, nullptr);
  EXPECT_GT(stats.overload.shed_early_drop, 0u)
      << "doomed flows exist on chain2: some must shed at ingress";
}

TEST(OverloadConservation, DisabledOverloadIsByteIdentical) {
  // A gate configured but disabled must leave the EXACT default path:
  // same bytes, same outcomes, all overload counters zero.
  for (const Scenario& scenario : kScenarios) {
    SCOPED_TRACE(scenario.chain_name);
    const std::vector<net::Packet> packets = scenario.packets();

    auto baseline_chain = scenario.factory();
    ChainRunner baseline{*baseline_chain,
                         {platform::PlatformKind::kBess, true}};
    std::vector<net::Packet> baseline_out;
    baseline.run(packets, &baseline_out);

    auto chain = scenario.factory();
    RunConfig disabled = overload_at_2x(platform::PlatformKind::kBess, true,
                                        DropPolicy::kTailDrop);
    disabled.overload.enabled = false;
    ChainRunner runner{*chain, disabled};
    std::vector<net::Packet> outputs;
    const RunStats& stats = runner.run(packets, &outputs);

    ASSERT_EQ(outputs.size(), baseline_out.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      ASSERT_TRUE(same_bytes(outputs[i], baseline_out[i]))
          << "packet " << i << " bytes differ with overload disabled";
      ASSERT_EQ(outputs[i].dropped(), baseline_out[i].dropped())
          << "packet " << i;
    }
    EXPECT_EQ(stats.packets, baseline.stats().packets);
    EXPECT_EQ(stats.drops, baseline.stats().drops);
    const OverloadStats& overload = stats.overload;
    EXPECT_EQ(overload.offered, 0u);
    EXPECT_EQ(overload.admitted, 0u);
    EXPECT_EQ(overload.shed_total(), 0u);
    EXPECT_EQ(overload.faulted, 0u);
    EXPECT_EQ(overload.degraded_flows, 0u);
  }
}

}  // namespace
}  // namespace speedybox::runtime
