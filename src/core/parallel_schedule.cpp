#include "core/parallel_schedule.hpp"

#include <algorithm>

namespace speedybox::core {

std::uint64_t ParallelSchedule::critical_path(
    const std::vector<std::uint64_t>& costs) const {
  std::uint64_t total = 0;
  for (const auto& group : groups) {
    std::uint64_t group_max = 0;
    for (const std::size_t index : group) {
      if (index < costs.size()) group_max = std::max(group_max, costs[index]);
    }
    total += group_max;
  }
  return total;
}

ParallelSchedule build_schedule(
    const std::vector<StateFunctionBatch>& batches) {
  ParallelSchedule schedule;
  std::vector<PayloadAccess> group_access;  // access of each batch in group

  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (batches[i].empty()) continue;
    const PayloadAccess access = batches[i].access;
    bool joined = false;
    if (!schedule.groups.empty()) {
      // Batch i may join the open group only if every already-grouped batch
      // (all of which precede it in chain order) permits it.
      joined = std::all_of(
          group_access.begin(), group_access.end(),
          [access](PayloadAccess prior) {
            return parallelizable(prior, access);
          });
    }
    if (joined) {
      schedule.groups.back().push_back(i);
      group_access.push_back(access);
    } else {
      schedule.groups.push_back({i});
      group_access.assign(1, access);
    }
  }
  return schedule;
}

}  // namespace speedybox::core
