// Properties of the Table-I parallel scheduler (§V-C2), over random batch
// access sequences:
//   soundness   — within every group, each ordered pair is parallelizable;
//   completeness— every batch appears exactly once, groups preserve order;
//   latency     — critical path ≤ sum of costs, ≥ max cost.
#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_schedule.hpp"
#include "util/rng.hpp"

namespace speedybox::core {
namespace {

std::vector<StateFunctionBatch> random_batches(util::Rng& rng,
                                               std::size_t count) {
  std::vector<StateFunctionBatch> batches;
  for (std::size_t i = 0; i < count; ++i) {
    StateFunctionBatch batch;
    batch.nf_index = static_cast<std::uint32_t>(i);
    batch.begin = static_cast<std::uint32_t>(i);
    batch.end = batch.begin + 1;
    batch.access = static_cast<PayloadAccess>(rng.below(3));
    batches.push_back(batch);
  }
  return batches;
}

/// The schedule of `batches`, built into a fresh ParallelSchedule.
ParallelSchedule schedule_of(const std::vector<StateFunctionBatch>& batches) {
  ParallelSchedule schedule;
  build_schedule(batches, schedule);
  return schedule;
}

class ScheduleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleProperty, GroupsAreSoundAndComplete) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t count = 1 + rng.below(10);
    const auto batches = random_batches(rng, count);
    const ParallelSchedule schedule = schedule_of(batches);

    // Completeness: every index exactly once, ascending across groups.
    std::vector<std::size_t> flattened;
    for (std::size_t g = 0; g < schedule.group_count(); ++g) {
      for (const std::size_t index : schedule.group(g)) {
        flattened.push_back(index);
      }
    }
    std::vector<std::size_t> expected(count);
    std::iota(expected.begin(), expected.end(), 0);
    ASSERT_EQ(flattened, expected);

    // Soundness: all ordered pairs within a group parallelizable.
    for (std::size_t g = 0; g < schedule.group_count(); ++g) {
      const auto group = schedule.group(g);
      for (std::size_t a = 0; a < group.size(); ++a) {
        for (std::size_t b = a + 1; b < group.size(); ++b) {
          ASSERT_TRUE(parallelizable(batches[group[a]].access,
                                     batches[group[b]].access))
              << "group violates Table I";
        }
      }
    }
  }
}

TEST_P(ScheduleProperty, CriticalPathBounded) {
  util::Rng rng{GetParam() ^ 0xF00D};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t count = 1 + rng.below(10);
    const auto batches = random_batches(rng, count);
    const ParallelSchedule schedule = schedule_of(batches);

    std::vector<std::uint64_t> costs;
    for (std::size_t i = 0; i < count; ++i) costs.push_back(rng.below(1000));
    const std::uint64_t critical = schedule.critical_path(costs);
    const std::uint64_t total =
        std::accumulate(costs.begin(), costs.end(), std::uint64_t{0});
    const std::uint64_t max_cost =
        *std::max_element(costs.begin(), costs.end());
    ASSERT_LE(critical, total);
    ASSERT_GE(critical, max_cost);
  }
}

TEST_P(ScheduleProperty, GreedyNeverWorseThanSequential) {
  // The number of groups never exceeds the batch count, and all-IGNORE
  // sequences always collapse to a single group.
  util::Rng rng{GetParam() ^ 0xBEEF};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t count = 1 + rng.below(8);
    const auto batches = random_batches(rng, count);
    EXPECT_LE(schedule_of(batches).group_count(), count);
  }

  std::vector<StateFunctionBatch> ignores;
  for (std::size_t i = 0; i < 6; ++i) {
    StateFunctionBatch batch;
    batch.nf_index = static_cast<std::uint32_t>(i);
    batch.begin = static_cast<std::uint32_t>(i);
    batch.end = batch.begin + 1;
    batch.access = PayloadAccess::kIgnore;
    ignores.push_back(batch);
  }
  EXPECT_EQ(schedule_of(ignores).group_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace speedybox::core
