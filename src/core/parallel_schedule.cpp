#include "core/parallel_schedule.hpp"

#include <algorithm>

namespace speedybox::core {

std::uint64_t ParallelSchedule::critical_path(
    const std::vector<std::uint64_t>& costs) const {
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < group_count(); ++g) {
    std::uint64_t group_max = 0;
    for (const std::uint32_t index : group(g)) {
      if (index < costs.size()) group_max = std::max(group_max, costs[index]);
    }
    total += group_max;
  }
  return total;
}

void build_schedule(std::span<const StateFunctionBatch> batches,
                    ParallelSchedule& schedule) {
  schedule.members.clear();
  schedule.ends.clear();
  // Batch i may join the open group only if every already-grouped batch
  // (all of which precede it in chain order) permits it. By Table I only a
  // WRITE member can refuse, and it refuses all but an IGNORE batch.
  bool group_writes = false;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (batches[i].empty()) continue;
    const PayloadAccess access = batches[i].access;
    const bool joined = !schedule.ends.empty() &&
                        parallelizable(group_writes ? PayloadAccess::kWrite
                                                    : PayloadAccess::kIgnore,
                                       access);
    if (!joined) {
      schedule.ends.push_back(
          static_cast<std::uint32_t>(schedule.members.size()));
      group_writes = false;
    }
    schedule.members.push_back(static_cast<std::uint32_t>(i));
    ++schedule.ends.back();
    group_writes = group_writes || access == PayloadAccess::kWrite;
  }
}

}  // namespace speedybox::core
