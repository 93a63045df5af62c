// §VII-C-1: "Testing Snort (different conditional branches)" — inject flows
// whose payloads match Pass, Alert and Log rules so every inspection branch
// is exercised, and verify the log outputs of the original and SpeedyBox
// paths are identical.
#include <gtest/gtest.h>

#include "equivalence/equivalence_helpers.hpp"
#include "nf/snort_ids.hpp"
#include "test_helpers.hpp"
#include "trace/payload_synth.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::expect_identical_outputs;
using speedybox::testing::run_chain;

trace::Workload snort_workload(std::size_t payload_bytes = 160) {
  trace::Workload workload =
      trace::make_uniform_workload(30, 12, payload_bytes);
  trace::PayloadSynthConfig config;
  config.match_fraction = 0.6;  // plenty of matching flows
  plant_rule_contents(workload, trace::default_snort_rules(), config);
  return workload;
}

void expect_identical_logs(const trace::Workload& workload) {
  ServiceChain original_chain;
  auto& original_snort =
      original_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  const auto original = run_chain(original_chain, workload, false);

  ServiceChain speedy_chain;
  auto& speedy_snort =
      speedy_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  const auto speedy = run_chain(speedy_chain, workload, true);

  // Identical packet outputs...
  expect_identical_outputs(original, speedy);
  // ...and identical inspection results, entry by entry.
  EXPECT_GT(original_snort.log().size(), 0u)
      << "workload must exercise alert/log branches";
  ASSERT_EQ(original_snort.log().size(), speedy_snort.log().size());
  for (std::size_t i = 0; i < original_snort.log().size(); ++i) {
    EXPECT_EQ(original_snort.log()[i], speedy_snort.log()[i])
        << "log entry " << i;
  }
  EXPECT_EQ(original_snort.alert_count(), speedy_snort.alert_count());
  EXPECT_EQ(original_snort.log_count(), speedy_snort.log_count());
  EXPECT_EQ(original_snort.pass_count(), speedy_snort.pass_count());
}

/// 160 B payloads take the matcher's single walk and 512 B ones its
/// interleaved walk.
TEST(SnortEquivalence, LogOutputsIdentical) {
  for (const std::size_t payload_bytes : {160, 512}) {
    SCOPED_TRACE(::testing::Message() << payload_bytes << " B payloads");
    expect_identical_logs(snort_workload(payload_bytes));
  }
}

TEST(SnortEquivalence, AllThreeBranchesCovered) {
  const trace::Workload workload = snort_workload();
  ServiceChain chain;
  auto& snort = chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  run_chain(chain, workload, true);
  EXPECT_GT(snort.alert_count(), 0u);
  EXPECT_GT(snort.log_count(), 0u);
  EXPECT_GT(snort.pass_count(), 0u);
}

TEST(SnortEquivalence, CleanTrafficSilentOnBothPaths) {
  const trace::Workload workload = trace::make_uniform_workload(10, 10, 64);

  ServiceChain original_chain;
  auto& original_snort =
      original_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  run_chain(original_chain, workload, false);

  ServiceChain speedy_chain;
  auto& speedy_snort =
      speedy_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  run_chain(speedy_chain, workload, true);

  EXPECT_TRUE(original_snort.log().empty());
  EXPECT_TRUE(speedy_snort.log().empty());
}

}  // namespace
}  // namespace speedybox::runtime
