// Round-trip property of the plan layer's serialization (DESIGN.md §12):
// for ANY ChainSpec/DeploymentPlan the generator can produce,
//
//   parse(serialize(x)) == x          (token, chain-string and JSON forms)
//
// and the parse of a re-serialized parse is a fixpoint (dump == re-dump).
// Alongside, the rejection property: structurally broken documents —
// unknown fields, empty chains, duplicate option keys, bad enum values —
// throw PlanError/RegistryError instead of quietly defaulting, and random
// single-character corruption of a valid document never crashes the parser
// (it either throws or yields a plan that round-trips again).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/plan.hpp"
#include "util/rng.hpp"

namespace speedybox::plan {
namespace {

// Kinds/options drawn from the registry's real vocabulary plus arbitrary
// not-yet-registered ones — NfSpec parsing is registry-agnostic by design.
const char* const kKinds[] = {"nat",     "maglev",  "monitor", "ipfilter",
                              "snort",   "dos",     "vpn-out", "synthetic",
                              "futurenf", "x"};
const char* const kKeys[] = {"backends", "table", "port", "threshold",
                             "iterations", "alpha", "k"};

nf::NfSpec random_nf(util::Rng& rng) {
  nf::NfSpec spec;
  spec.kind = kKinds[rng.below(std::size(kKinds))];
  const std::size_t options = rng.below(4);
  for (std::size_t i = 0; i < options && i < std::size(kKeys); ++i) {
    // Draw without replacement (duplicate keys are rejected by design).
    const std::string key = kKeys[(rng.below(3) + 2 * i) % std::size(kKeys)];
    if (spec.has_option(key)) continue;
    const bool flag = rng.chance(0.25);
    spec.options.emplace_back(
        key, flag ? "" : std::to_string(rng.below(100000)));
  }
  return spec;
}

ChainSpec random_chain(util::Rng& rng) {
  ChainSpec chain;
  chain.name = "chain-" + std::to_string(rng.below(1000));
  const std::size_t nfs = 1 + rng.below(6);
  for (std::size_t i = 0; i < nfs; ++i) chain.nfs.push_back(random_nf(rng));
  return chain;
}

DeploymentPlan random_plan(util::Rng& rng) {
  DeploymentPlan plan;
  plan.chain = random_chain(rng);
  // Executor and shards drawn jointly legal-shaped (round-tripping does
  // not require validate() to pass, but keep the generator honest); every
  // executor runs either mode.
  switch (rng.below(3)) {
    case 0:
      plan.executor = ExecutorKind::kRunner;
      break;
    case 1:
      plan.executor = ExecutorKind::kSharded;
      plan.shards = 1 + rng.below(8);
      break;
    default:
      plan.executor = ExecutorKind::kPipeline;
      break;
  }
  plan.speedybox = rng.chance(0.5);
  plan.platform = rng.chance(0.5) ? platform::PlatformKind::kBess
                                  : platform::PlatformKind::kOnvm;
  plan.batch_size = 1 + rng.below(256);
  plan.ring_capacity = 1 + rng.below(8192);
  if (rng.chance(0.5)) {
    // Random segmentation covering the chain exactly.
    std::size_t left = plan.chain.nfs.size();
    while (left > 0) {
      SegmentSpec segment;
      segment.nf_count = 1 + rng.below(left);
      segment.parallel = rng.chance(0.4);
      left -= segment.nf_count;
      plan.segments.push_back(segment);
    }
  }
  if (rng.chance(0.4)) {
    plan.overload.enabled = true;
    plan.overload.offered_load = 0.5 + rng.below(8) * 0.5;
    plan.overload.policy =
        rng.chance(0.5)
            ? runtime::DropPolicy::kTailDrop
            : (rng.chance(0.5) ? runtime::DropPolicy::kPerFlowFair
                               : runtime::DropPolicy::kSloEarlyDrop);
    plan.overload.queue_capacity = 1 + rng.below(4096);
  }
  if (rng.chance(0.3)) {
    runtime::FaultSpec fault;
    fault.fail_every = 1 + rng.below(100);
    plan.fault = {plan.chain.nfs[rng.below(plan.chain.nfs.size())].kind,
                  fault};
  }
  if (rng.chance(0.3)) {
    plan.predicted_cycles_per_packet = 1.0 + rng.below(100000);
    plan.target_rate_mpps = 0.1 + rng.below(100) * 0.1;
  }
  plan.cycle_model = rng.chance(0.5);
  return plan;
}

class PlanRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanRoundTrip, ChainSpecStringAndJsonAreLossless) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    const ChainSpec chain = random_chain(rng);
    // Token/string form.
    const ChainSpec from_string =
        ChainSpec::parse(chain.to_string(), chain.name);
    ASSERT_EQ(from_string, chain) << chain.to_string();
    // JSON form.
    const ChainSpec from_json = ChainSpec::from_json(chain.to_json());
    ASSERT_EQ(from_json, chain) << chain.to_json().dump();
  }
}

TEST_P(PlanRoundTrip, DeploymentPlanJsonIsLossless) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const DeploymentPlan plan = random_plan(rng);
    const std::string dump = plan.dump();
    DeploymentPlan reparsed;
    try {
      reparsed = DeploymentPlan::parse(dump);
    } catch (const std::exception& error) {
      FAIL() << "round-trip rejected its own dump: " << error.what()
             << "\n" << dump;
    }
    ASSERT_EQ(reparsed, plan) << dump;      // == is dump() equality
    ASSERT_EQ(reparsed.dump(), dump);       // serialization fixpoint
    // Field-level spot checks so == can't hide behind dump().
    ASSERT_EQ(reparsed.chain, plan.chain);
    ASSERT_EQ(reparsed.executor, plan.executor);
    ASSERT_EQ(reparsed.speedybox, plan.speedybox);
    ASSERT_EQ(reparsed.cycle_model, plan.cycle_model);
    ASSERT_EQ(reparsed.shards, plan.shards);
    ASSERT_EQ(reparsed.segments, plan.segments);
    ASSERT_EQ(reparsed.overload.enabled, plan.overload.enabled);
  }
}

TEST_P(PlanRoundTrip, ModeNeverDecidesValidity) {
  // Every executor runs either data path, so flipping a plan's mode never
  // changes whether it validates.
  util::Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    DeploymentPlan plan = random_plan(rng);
    const auto validates = [&plan](bool speedybox) {
      plan.speedybox = speedybox;
      try {
        plan.validate();
        return true;
      } catch (const std::exception&) {
        return false;
      }
    };
    ASSERT_EQ(validates(false), validates(true)) << plan.dump();
  }
}

TEST_P(PlanRoundTrip, CorruptedDocumentsNeverCrashTheParser) {
  util::Rng rng{GetParam()};
  const std::string pristine = random_plan(rng).dump();
  for (int i = 0; i < 300; ++i) {
    std::string corrupted = pristine;
    const std::size_t at = rng.below(corrupted.size());
    switch (rng.below(3)) {
      case 0:
        corrupted[at] = static_cast<char>(32 + rng.below(95));
        break;
      case 1:
        corrupted.erase(at, 1);
        break;
      default:
        corrupted.insert(at, 1, static_cast<char>(32 + rng.below(95)));
        break;
    }
    try {
      const DeploymentPlan plan = DeploymentPlan::parse(corrupted);
      // Survived the corruption: it must still round-trip.
      ASSERT_EQ(DeploymentPlan::parse(plan.dump()), plan);
    } catch (const std::exception&) {
      // Rejected loudly — the expected common case.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 20190708u,
                                           0xC0FFEEu));

TEST(PlanRejection, StructurallyBrokenSpecsFailLoudly) {
  // Duplicate option keys inside one token.
  EXPECT_THROW(ChainSpec::parse("maglev:backends=5:backends=9"),
               nf::RegistryError);
  // Empty chain, empty token name.
  EXPECT_THROW(ChainSpec::parse(""), PlanError);
  EXPECT_THROW(ChainSpec::parse("nat,:x=1"), nf::RegistryError);
  // JSON: nfs must be a non-empty string array.
  EXPECT_THROW(
      ChainSpec::from_json(*telemetry::Json::parse(
          R"({"name":"c","nfs":[]})")),
      PlanError);
  EXPECT_THROW(
      ChainSpec::from_json(*telemetry::Json::parse(
          R"({"name":"c","nfs":["nat"],"extra":1})")),
      PlanError);
  // The ONVM deployment is the pipeline in original mode; "onvm" is not
  // an executor kind.
  EXPECT_THROW(DeploymentPlan::parse(
                   R"({"chain":{"name":"c","nfs":["nat"]},)"
                   R"("executor":"onvm","mode":"original"})"),
               PlanError);
}

}  // namespace
}  // namespace speedybox::plan
