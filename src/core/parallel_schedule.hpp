// Table-I dependency analysis: which cross-NF state-function batches may
// execute in parallel on the fast path (§V-C2).
//
// The paper's rule (Table I, with batch1 preceding batch2 in chain order):
// the pair is parallelizable unless batch1 WRITEs the payload and batch2
// does not IGNORE it. Header dependencies never block parallelism because
// the Global MAT has already consolidated all header actions for the flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/state_function.hpp"

namespace speedybox::core {

/// Table-I entry for an ordered pair (batch1 before batch2).
constexpr bool parallelizable(PayloadAccess batch1,
                              PayloadAccess batch2) noexcept {
  return !(batch1 == PayloadAccess::kWrite &&
           batch2 != PayloadAccess::kIgnore);
}

/// Groups of batch indices that can run concurrently; groups execute in
/// sequence. A batch joins the current group only if it is parallelizable
/// with every batch already in the group (pairwise, in chain order).
/// Stored flat: `members` lists the grouped batch indices group after
/// group, and `ends[g]` is where group g's run of them ends.
struct ParallelSchedule {
  std::vector<std::uint32_t> members;
  std::vector<std::uint32_t> ends;

  std::size_t group_count() const noexcept { return ends.size(); }
  /// The batch indices of group `g`, in chain order.
  std::span<const std::uint32_t> group(std::size_t g) const noexcept {
    const std::uint32_t begin = g == 0 ? 0 : ends[g - 1];
    return std::span<const std::uint32_t>{members}.subspan(begin,
                                                           ends[g] - begin);
  }

  /// Modeled critical-path cost: sum over groups of the max member cost.
  /// `costs[i]` is the measured cycle cost of batch i.
  std::uint64_t critical_path(const std::vector<std::uint64_t>& costs) const;
};

/// Rebuild `schedule` for the given batches (in chain order) in place: a
/// recycled flow record's schedule reuses its storage, so recompiling a
/// rule allocates nothing.
void build_schedule(std::span<const StateFunctionBatch> batches,
                    ParallelSchedule& schedule);

}  // namespace speedybox::core
