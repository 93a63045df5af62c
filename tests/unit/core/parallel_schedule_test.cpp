#include "core/parallel_schedule.hpp"

#include <gtest/gtest.h>

namespace speedybox::core {
namespace {

/// NF `nf_index`'s one-handler batch, at the same position of the rule's
/// handler array.
StateFunctionBatch batch_with(PayloadAccess access, std::uint32_t nf_index) {
  StateFunctionBatch batch;
  batch.nf_index = nf_index;
  batch.begin = nf_index;
  batch.end = nf_index + 1;
  batch.access = access;
  return batch;
}

/// The schedule of `batches`, built into a fresh ParallelSchedule.
ParallelSchedule schedule_of(const std::vector<StateFunctionBatch>& batches) {
  ParallelSchedule schedule;
  build_schedule(batches, schedule);
  return schedule;
}

/// Group `g`'s batch indices.
std::vector<std::size_t> members(const ParallelSchedule& schedule,
                                 std::size_t g) {
  const auto group = schedule.group(g);
  return {group.begin(), group.end()};
}

// Table I, literally: parallelizable unless batch1 WRITEs and batch2 does
// not IGNORE.
TEST(TableI, PairwiseRules) {
  using enum PayloadAccess;
  EXPECT_FALSE(parallelizable(kWrite, kWrite));
  EXPECT_FALSE(parallelizable(kWrite, kRead));
  EXPECT_TRUE(parallelizable(kWrite, kIgnore));
  EXPECT_TRUE(parallelizable(kRead, kWrite));
  EXPECT_TRUE(parallelizable(kRead, kRead));
  EXPECT_TRUE(parallelizable(kRead, kIgnore));
  EXPECT_TRUE(parallelizable(kIgnore, kWrite));
  EXPECT_TRUE(parallelizable(kIgnore, kRead));
  EXPECT_TRUE(parallelizable(kIgnore, kIgnore));
}

TEST(BuildSchedule, AllReadsFormOneGroup) {
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kRead, 0),
      batch_with(PayloadAccess::kRead, 1),
      batch_with(PayloadAccess::kRead, 2),
  };
  const ParallelSchedule schedule = schedule_of(batches);
  ASSERT_EQ(schedule.group_count(), 1u);
  EXPECT_EQ(members(schedule, 0), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BuildSchedule, WriterBlocksFollowingReader) {
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kWrite, 0),
      batch_with(PayloadAccess::kRead, 1),
  };
  const ParallelSchedule schedule = schedule_of(batches);
  EXPECT_EQ(schedule.group_count(), 2u);
}

TEST(BuildSchedule, WriterGroupsWithFollowingIgnore) {
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kWrite, 0),
      batch_with(PayloadAccess::kIgnore, 1),
  };
  const ParallelSchedule schedule = schedule_of(batches);
  ASSERT_EQ(schedule.group_count(), 1u);
  EXPECT_EQ(schedule.group(0).size(), 2u);
}

TEST(BuildSchedule, ReaderThenWriterGroupTogether) {
  // Table I: (read, write) = Y.
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kRead, 0),
      batch_with(PayloadAccess::kWrite, 1),
  };
  EXPECT_EQ(schedule_of(batches).group_count(), 1u);
}

TEST(BuildSchedule, WriterInGroupBlocksLaterReader) {
  // {read, write} group formed; a following read must not join because the
  // write in the group forbids it.
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kRead, 0),
      batch_with(PayloadAccess::kWrite, 1),
      batch_with(PayloadAccess::kRead, 2),
  };
  const ParallelSchedule schedule = schedule_of(batches);
  ASSERT_EQ(schedule.group_count(), 2u);
  EXPECT_EQ(members(schedule, 0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(members(schedule, 1), (std::vector<std::size_t>{2}));
}

TEST(BuildSchedule, EmptyBatchesSkipped) {
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kRead, 0),
      StateFunctionBatch{},  // NF with no state functions
      batch_with(PayloadAccess::kRead, 2),
  };
  const ParallelSchedule schedule = schedule_of(batches);
  ASSERT_EQ(schedule.group_count(), 1u);
  EXPECT_EQ(members(schedule, 0), (std::vector<std::size_t>{0, 2}));
}

TEST(BuildSchedule, NoBatchesNoGroups) {
  EXPECT_EQ(schedule_of({}).group_count(), 0u);
}

TEST(CriticalPath, SumOfGroupMaxima) {
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kRead, 0),
      batch_with(PayloadAccess::kRead, 1),
      batch_with(PayloadAccess::kWrite, 2),
  };
  // Groups: {0,1,2}? read,read then write joins only if every prior allows:
  // (read,write)=Y, (read,write)=Y -> one group of 3.
  const ParallelSchedule schedule = schedule_of(batches);
  ASSERT_EQ(schedule.group_count(), 1u);
  EXPECT_EQ(schedule.critical_path({100, 250, 50}), 250u);
}

TEST(CriticalPath, SequentialGroupsAdd) {
  std::vector<StateFunctionBatch> batches{
      batch_with(PayloadAccess::kWrite, 0),
      batch_with(PayloadAccess::kWrite, 1),
  };
  const ParallelSchedule schedule = schedule_of(batches);
  ASSERT_EQ(schedule.group_count(), 2u);
  EXPECT_EQ(schedule.critical_path({100, 250}), 350u);
}

}  // namespace
}  // namespace speedybox::core
