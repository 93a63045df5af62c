// The Event Table (§V-C1, Fig. 3): expresses the *mutable* part of stateful
// NF behavior on the consolidated path.
//
// NFs register, per flow, a condition handler (a predicate over their own
// internal state) and an update (replacement header actions and/or state
// functions). Consolidation copies a flow's conditions into its rule, and
// the fast path evaluates them there on every subsequent packet; only when
// one holds does it enter check(), which fires the event: it rewrites the
// owning NF's Local MAT record and forces re-consolidation, so the current
// and all later packets follow the new rule — e.g. Maglev rerouting an
// established flow to a healthy backend, or a DoS-prevention NF flipping a
// flow from modify to drop once its SYN counter crosses the threshold.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/flow_table.hpp"
#include "core/header_action.hpp"
#include "core/state_function.hpp"

namespace speedybox::core {

/// What a triggered event installs into the owning NF's Local MAT record.
struct EventUpdate {
  std::optional<std::vector<HeaderAction>> header_actions;
  std::optional<std::vector<StateFunction>> state_functions;
};

/// Predicate over NF internal state ("state.matchCondition" in Fig. 1).
/// NFs bind the per-flow cells they resolved while recording (Figure 2's
/// args), so evaluating it never re-looks-up the flow.
using ConditionHandler = std::function<bool()>;

/// Produces the update at trigger time (so e.g. Maglev can compute the new
/// backend with consistent hashing at the moment of failover).
using UpdateHandler = std::function<EventUpdate()>;

struct EventRegistration {
  std::uint32_t fid = 0;
  std::size_t nf_index = 0;  // which Local MAT the update applies to
  std::string name;
  ConditionHandler condition;
  UpdateHandler update;
  /// One-shot events (the common case: failover, blacklist) deregister on
  /// trigger; persistent events keep being checked.
  bool one_shot = true;
};

/// Thread safety: registration happens on NF cores during the recording
/// pass while the manager core checks/erases other flows, so every access
/// to the per-flow records takes the table mutex. check() evaluates a
/// flow's conditions as a batch under the lock (conditions are NF-state
/// predicates and must not call back into this table), then runs updates
/// and the trigger callback — which re-consolidates, re-entering this
/// table — outside it. The check and trigger counters have one writer, the
/// thread that runs the flow's fast path (check() and count_checks()), and
/// may be read from any thread.
class EventTable {
 public:
  void register_event(EventRegistration event) {
    const std::lock_guard lock(mutex_);
    events_.try_emplace(event.fid).first->push_back(std::move(event));
  }

  bool has_events(std::uint32_t fid) const {
    const std::lock_guard lock(mutex_);
    return events_.contains(fid);
  }

  /// Append copies of the flow's conditions to `out`, in registration
  /// order — what consolidation installs in the rule for the fast path.
  void copy_conditions(std::uint32_t fid,
                       std::vector<ConditionHandler>& out) const;

  /// Evaluate all conditions registered for `fid`. For each triggered event
  /// `on_trigger(event, update)` is invoked (the Global MAT uses it to patch
  /// the Local MAT and re-consolidate). Returns the number triggered.
  std::size_t check(
      std::uint32_t fid,
      const std::function<void(const EventRegistration&, EventUpdate)>&
          on_trigger);

  /// Count condition evaluations the fast path made from a rule's copies,
  /// so checks_performed() covers every evaluation.
  void count_checks(std::uint64_t evaluated) noexcept {
    bump(checks_, evaluated);
  }

  void erase_flow(std::uint32_t fid) {
    const std::lock_guard lock(mutex_);
    events_.erase(fid);
  }
  void clear() {
    const std::lock_guard lock(mutex_);
    events_.clear();
  }

  std::size_t flow_count() const noexcept {
    const std::lock_guard lock(mutex_);
    return events_.size();
  }
  std::uint64_t checks_performed() const noexcept {
    return checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t events_triggered() const noexcept {
    return triggers_.load(std::memory_order_relaxed);
  }

 private:
  static void bump(std::atomic<std::uint64_t>& cell,
                   std::uint64_t delta) noexcept {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  mutable std::mutex mutex_;
  /// FID-keyed slab records; a flow's list is erased with its last event.
  FlowTable<std::uint32_t, std::vector<EventRegistration>> events_;
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> triggers_{0};
};

}  // namespace speedybox::core
