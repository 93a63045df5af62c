// The deployment-plan layer (runtime/plan.hpp): ChainSpec parsing and
// validation, DeploymentPlan cross-field constraints and strict JSON, the
// canonical §VII-C chain definitions, plan::build()'s executor shapes, and
// the offline planner's consolidation/sharding model (runtime/planner.hpp).
#include <gtest/gtest.h>

#include "nf/maglev_lb.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "runtime/plan.hpp"
#include "runtime/planner.hpp"

namespace speedybox::plan {
namespace {

/// EXPECT that `expr` throws (PlanError or RegistryError — both derive
/// from std::runtime_error) with every needle in the message.
template <typename Fn>
void expect_plan_error(Fn&& fn,
                       std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected a plan/registry error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    for (const char* needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "message \"" << message << "\" lacks \"" << needle << "\"";
    }
  }
}

TEST(ChainSpec, ParseAndToStringRoundTrip) {
  const ChainSpec spec =
      ChainSpec::parse("nat,maglev:backends=5,monitor:heavy", "mychain");
  EXPECT_EQ(spec.name, "mychain");
  ASSERT_EQ(spec.nfs.size(), 3u);
  EXPECT_EQ(spec.nfs[1].kind, "maglev");
  EXPECT_EQ(spec.to_string(), "nat,maglev:backends=5,monitor:heavy");
  EXPECT_EQ(ChainSpec::parse(spec.to_string(), "mychain"), spec);
}

TEST(ChainSpec, RejectsEmptySpecs) {
  expect_plan_error([] { ChainSpec::parse(""); }, {"no NFs"});
  expect_plan_error([] { ChainSpec::parse(",,"); }, {"no NFs"});
}

TEST(ChainSpec, ValidateConsultsTheRegistry) {
  ChainSpec spec = ChainSpec::parse("nat,nosuchnf");
  expect_plan_error([&] { spec.validate(); },
                    {"unknown NF 'nosuchnf'", "registered NFs:"});
  ChainSpec bad_option = ChainSpec::parse("maglev:warp=9");
  expect_plan_error([&] { bad_option.validate(); },
                    {"unknown option 'warp'", "valid options:"});
}

TEST(ChainSpec, JsonRoundTrip) {
  const ChainSpec spec = vii_c_chain1();
  EXPECT_EQ(ChainSpec::from_json(spec.to_json()), spec);
}

TEST(CanonicalChains, BuildTheTwoEvaluationChains) {
  const auto chain1 = build_chain(vii_c_chain1());
  ASSERT_EQ(chain1->size(), 4u);
  EXPECT_EQ(chain1->name(), "chain1_gateway");
  EXPECT_NE(dynamic_cast<nf::MazuNat*>(&chain1->nf(0)), nullptr);
  EXPECT_NE(dynamic_cast<nf::MaglevLb*>(&chain1->nf(1)), nullptr);
  EXPECT_NE(dynamic_cast<nf::Monitor*>(&chain1->nf(2)), nullptr);

  const auto chain2 = build_chain(vii_c_chain2());
  ASSERT_EQ(chain2->size(), 3u);
  EXPECT_NE(dynamic_cast<nf::SnortIds*>(&chain2->nf(1)), nullptr);

  // The heavy bench variants validate too.
  vii_c_chain1_heavy().validate();
  vii_c_chain2_heavy().validate();
}

TEST(CanonicalChains, NfLabelsAreKindDashIndex) {
  const auto chain = build_chain(vii_c_chain2());
  const auto names = chain->nf_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "ipfilter-0");
  EXPECT_EQ(names[1], "snort-1");
  EXPECT_EQ(names[2], "monitor-2");
}

TEST(DeploymentPlan, ValidateEnforcesShardRulesAndAllowsEitherMode) {
  DeploymentPlan plan;
  plan.chain = vii_c_chain2();

  plan.executor = ExecutorKind::kSharded;
  plan.shards = 0;
  expect_plan_error([&] { plan.validate(); }, {"shards"});

  plan.executor = ExecutorKind::kRunner;
  plan.shards = 2;
  expect_plan_error([&] { plan.validate(); },
                    {"shards only applies to the sharded executor"});

  // No executor/mode pair is invalid: every shape runs either data path.
  for (const ExecutorKind executor :
       {ExecutorKind::kRunner, ExecutorKind::kSharded,
        ExecutorKind::kPipeline}) {
    for (const bool speedybox : {false, true}) {
      plan.executor = executor;
      plan.shards = executor == ExecutorKind::kSharded ? 2 : 0;
      plan.speedybox = speedybox;
      EXPECT_NO_THROW(plan.validate())
          << executor_kind_name(executor)
          << (speedybox ? "/speedybox" : "/original");
    }
  }

  plan.executor = ExecutorKind::kRunner;
  plan.shards = 0;
  plan.batch_size = 0;
  expect_plan_error([&] { plan.validate(); }, {"batch_size"});
}

TEST(DeploymentPlan, ValidateEnforcesSegmentCoverageAndTableI) {
  DeploymentPlan plan;
  plan.chain = vii_c_chain2();  // 3 NFs
  plan.segments = {{2, false}};
  expect_plan_error([&] { plan.validate(); },
                    {"segments cover 2 NFs", "has 3"});

  plan.segments = {{2, false}, {1, false}};
  plan.validate();  // fused but not parallel: always legal

  // vpn-out WRITEs the payload, snort READs it downstream — Table I
  // forbids claiming that pair parallel.
  plan.chain = ChainSpec::parse("vpn-out,snort,monitor");
  plan.segments = {{2, true}, {1, false}};
  expect_plan_error([&] { plan.validate(); },
                    {"parallel", "vpn-out", "snort", "Table I"});
}

TEST(DeploymentPlan, ValidateChecksFaultTarget) {
  DeploymentPlan plan;
  plan.chain = vii_c_chain2();
  plan.fault = runtime::parse_fault_spec("maglev:fail-every=5");
  ASSERT_TRUE(plan.fault.has_value());
  expect_plan_error([&] { plan.validate(); },
                    {"fault target 'maglev'", "not in the chain"});
  plan.fault = runtime::parse_fault_spec("snort:fail-every=5");
  plan.validate();
}

TEST(DeploymentPlan, JsonRoundTripsEveryField) {
  DeploymentPlan plan;
  plan.chain = vii_c_chain1();
  plan.executor = ExecutorKind::kSharded;
  plan.speedybox = true;
  plan.platform = platform::PlatformKind::kOnvm;
  plan.batch_size = 64;
  plan.cycle_model = true;
  plan.shards = 4;
  plan.ring_capacity = 2048;
  plan.segments = {{2, true}, {2, false}};
  plan.overload.enabled = true;
  plan.overload.offered_load = 2.5;
  plan.overload.policy = runtime::DropPolicy::kSloEarlyDrop;
  plan.overload.queue_capacity = 512;
  plan.fault = runtime::parse_fault_spec("nat:fail-every=7");
  plan.predicted_cycles_per_packet = 1234.5;
  plan.target_rate_mpps = 2.0;

  const DeploymentPlan reparsed = DeploymentPlan::parse(plan.dump());
  EXPECT_EQ(reparsed, plan);  // == compares dump()
  EXPECT_TRUE(reparsed.cycle_model);
  EXPECT_EQ(reparsed.shards, 4u);
  EXPECT_EQ(reparsed.segments, plan.segments);
  EXPECT_TRUE(reparsed.overload.enabled);
  EXPECT_EQ(reparsed.overload.queue_capacity, 512u);
  ASSERT_TRUE(reparsed.fault.has_value());
  EXPECT_EQ(reparsed.fault->first, "nat");
}

TEST(DeploymentPlan, StrictJsonRejectsUnknownAndMalformedFields) {
  const auto parse = [](const char* text) {
    return DeploymentPlan::parse(text);
  };
  expect_plan_error([&] { parse("{"); }, {"not valid JSON"});
  expect_plan_error([&] { parse("{}"); }, {"missing field 'chain'"});
  expect_plan_error(
      [&] {
        parse(R"({"chain":{"name":"c","nfs":["nat"]},"typo_knob":1})");
      },
      {"unknown field 'typo_knob'"});
  expect_plan_error(
      [&] {
        parse(R"({"version":2,"chain":{"name":"c","nfs":["nat"]}})");
      },
      {"unsupported plan version 2"});
  expect_plan_error(
      [&] {
        parse(R"({"chain":{"name":"c","nfs":["nat"]},"executor":"warp"})");
      },
      {"executor", "runner, sharded or pipeline"});
  // The ONVM deployment is the pipeline executor in original mode, so
  // "onvm" is not an executor kind and must fail loudly.
  expect_plan_error(
      [&] {
        parse(R"({"chain":{"name":"c","nfs":["nat"]},"executor":"onvm"})");
      },
      {"executor", "runner, sharded or pipeline"});
  expect_plan_error(
      [&] { parse(R"({"chain":{"name":"c","nfs":[]}})"); },
      {"chain.nfs", "non-empty"});
  expect_plan_error(
      [&] {
        parse(R"({"chain":{"name":"c","nfs":["nat"]},"overload":)"
              R"({"policy":"yolo"}})");
      },
      {"overload.policy"});
  expect_plan_error(
      [&] {
        parse(R"({"chain":{"name":"c","nfs":["nat"]},"cycle_model":1})");
      },
      {"cycle_model", "boolean"});
}

TEST(DeploymentPlan, CycleModelIsOffByDefaultAndCarriedIntoTheRunConfig) {
  DeploymentPlan plan;
  plan.chain = vii_c_chain1();
  EXPECT_FALSE(plan.cycle_model);
  EXPECT_FALSE(run_config(plan).cycle_model);
  EXPECT_EQ(plan.dump().find("cycle_model"), std::string::npos)
      << "a default plan's document does not name the field";
  plan.cycle_model = true;
  EXPECT_TRUE(run_config(plan).cycle_model);
  EXPECT_TRUE(DeploymentPlan::parse(
                  R"({"chain":{"name":"c","nfs":["nat"]},"cycle_model":true})")
                  .cycle_model);
}

TEST(Build, ConstructsEveryExecutorShape) {
  DeploymentPlan plan;
  plan.chain = vii_c_chain2();

  plan.executor = ExecutorKind::kRunner;
  EXPECT_EQ(build(plan).executor->kind(), "runner");

  plan.executor = ExecutorKind::kSharded;
  plan.shards = 2;
  EXPECT_EQ(build(plan).executor->kind(), "sharded");
  plan.shards = 0;

  plan.executor = ExecutorKind::kPipeline;
  EXPECT_EQ(build(plan).executor->kind(), "pipeline");

  plan.speedybox = false;
  EXPECT_EQ(build(plan).executor->kind(), "pipeline");
}

TEST(Build, RejectsInvalidPlansBeforeConstructing) {
  DeploymentPlan plan;
  plan.chain = ChainSpec::parse("nat,nosuchnf");
  expect_plan_error([&] { build(plan); }, {"unknown NF 'nosuchnf'"});
}

// --- Planner ---------------------------------------------------------------

Profile profile_of(std::initializer_list<std::pair<const char*, double>>
                       entries) {
  Profile profile;
  for (const auto& [name, cycles] : entries) {
    profile.per_nf.push_back({name, 1000, cycles, cycles});
  }
  return profile;
}

TEST(Planner, FusesParallelizableRunsAndModelsMaxCost) {
  // ipfilter (ignore), snort (read), monitor (ignore): all pairwise
  // parallelizable -> ONE parallel segment costing its bottleneck member
  // plus one hop.
  PlannerConfig config;
  config.target_mpps = 0.001;  // trivially met: stay single-core
  config.cpu_ghz = 3.0;
  config.hop_cycles = 60.0;
  PlanRationale rationale;
  const DeploymentPlan plan = plan_deployment(
      ChainSpec::parse("ipfilter,snort,monitor"),
      profile_of({{"ipfilter-0", 100.0}, {"snort-1", 1000.0},
                  {"monitor-2", 200.0}}),
      config, &rationale);

  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].nf_count, 3u);
  EXPECT_TRUE(plan.segments[0].parallel);
  EXPECT_DOUBLE_EQ(rationale.predicted_cycles_per_packet, 1000.0 + 60.0);
  EXPECT_EQ(plan.executor, ExecutorKind::kRunner);
  EXPECT_EQ(plan.shards, 0u);
  EXPECT_TRUE(plan.speedybox);
  plan.validate();
}

TEST(Planner, SplitsSegmentsAtTableIViolations) {
  // ipfilter(ignore) + vpn-out(write) fuse (an earlier ignore never
  // blocks); snort READs behind vpn-out's WRITE -> new segment.
  PlannerConfig config;
  config.target_mpps = 0.001;
  config.cpu_ghz = 3.0;
  PlanRationale rationale;
  const DeploymentPlan plan = plan_deployment(
      ChainSpec::parse("ipfilter,vpn-out,snort"),
      profile_of({{"ipfilter-0", 100.0}, {"vpn-out-1", 300.0},
                  {"snort-2", 1000.0}}),
      config, &rationale);

  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_EQ(plan.segments[0].nf_count, 2u);
  EXPECT_TRUE(plan.segments[0].parallel);
  EXPECT_EQ(plan.segments[1].nf_count, 1u);
  // max(100, 300) + hop  +  1000 + hop
  EXPECT_DOUBLE_EQ(rationale.predicted_cycles_per_packet,
                   300.0 + 60.0 + 1000.0 + 60.0);
  plan.validate();
}

TEST(Planner, ShardsWhenOneCoreCannotMeetTheTarget) {
  // 3 GHz over ~1060 cycles/pkt ≈ 2.83 Mpps/core; a 10 Mpps target needs
  // ceil(10 / 2.83) = 4 shards.
  PlannerConfig config;
  config.target_mpps = 10.0;
  config.cpu_ghz = 3.0;
  config.max_shards = 8;
  PlanRationale rationale;
  const DeploymentPlan plan = plan_deployment(
      ChainSpec::parse("ipfilter,snort,monitor"),
      profile_of({{"ipfilter-0", 100.0}, {"snort-1", 1000.0},
                  {"monitor-2", 200.0}}),
      config, &rationale);

  EXPECT_EQ(plan.executor, ExecutorKind::kSharded);
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(rationale.shards, 4u);
  EXPECT_NEAR(rationale.predicted_single_core_mpps, 3000.0 / 1060.0, 1e-9);
  EXPECT_DOUBLE_EQ(plan.target_rate_mpps, 10.0);
  plan.validate();

  // An absurd target clamps at max_shards instead of exploding.
  config.target_mpps = 1e6;
  const DeploymentPlan capped = plan_deployment(
      ChainSpec::parse("ipfilter,snort,monitor"),
      profile_of({{"snort-1", 1000.0}}), config, nullptr);
  EXPECT_EQ(capped.shards, config.max_shards);
}

TEST(Planner, UnprofiledNfsFallBackToDefaultCycles) {
  PlannerConfig config;
  config.target_mpps = 0.001;
  config.cpu_ghz = 3.0;
  config.default_nf_cycles = 500.0;
  PlanRationale rationale;
  plan_deployment(ChainSpec::parse("ipfilter,snort"),
                  profile_of({{"snort-1", 2000.0}}), config, &rationale);
  ASSERT_EQ(rationale.nf_cycles.size(), 2u);
  EXPECT_FALSE(rationale.nf_profiled[0]);
  EXPECT_DOUBLE_EQ(rationale.nf_cycles[0], 500.0);
  EXPECT_TRUE(rationale.nf_profiled[1]);
  EXPECT_DOUBLE_EQ(rationale.nf_cycles[1], 2000.0);
}

TEST(PlannerProfile, FromJsonlReadsTheLastLineAndFailsLoudly) {
  const char* jsonl =
      "{\"aggregate\":{\"per_nf\":[{\"nf\":\"snort-1\",\"packets\":10,"
      "\"cycles\":{\"count\":10,\"mean\":900.0,\"p95\":1000.0}}]}}\n"
      "{\"aggregate\":{\"per_nf\":[{\"nf\":\"snort-1\",\"packets\":20,"
      "\"cycles\":{\"count\":20,\"mean\":1100.0,\"p95\":1200.0}}]}}\n";
  const Profile profile = Profile::from_jsonl(jsonl);
  const NfProfile* snort = profile.find("snort-1");
  ASSERT_NE(snort, nullptr);
  EXPECT_EQ(snort->packets, 20u);  // LAST line wins (cumulative counters)
  EXPECT_DOUBLE_EQ(snort->mean_cycles, 1100.0);

  expect_plan_error([] { Profile::from_jsonl(""); }, {"empty"});
  expect_plan_error([] { Profile::from_jsonl("{\"no\":\"per_nf\"}"); },
                    {"--metrics-out"});
}

}  // namespace
}  // namespace speedybox::plan
