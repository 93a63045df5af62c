// The Local Match-Action Table (§IV): one per NF. As the initial packet of
// a flow traverses the chain, the NF records — through the SpeedyBox APIs —
// its per-flow header actions (ordered) and state functions (an ordered
// queue, §IV-B) here. The Global MAT consolidates across the chain's Local
// MATs.
//
// Records live in a FID-keyed core::FlowTable: slab storage that a flow's
// teardown returns for the next flow to reuse, with no heap node per flow.
//
// Thread safety: every operation takes the table's mutex, so an NF core can
// record flows while the manager core consolidates, applies event updates,
// or tears flows down (the threaded ONVM deployment, §VI-A). These are all
// control-plane operations — once per flow or per event, never per packet —
// so the uncontended lock cost is irrelevant to the data path.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/flow_table.hpp"
#include "core/header_action.hpp"
#include "core/state_function.hpp"

namespace speedybox::core {

/// Per-flow record in a Local MAT.
struct LocalRule {
  std::vector<HeaderAction> header_actions;   // recorded order
  std::vector<StateFunction> state_functions; // recorded order (a queue)
  /// Invoked when the flow is torn down (FIN/RST), so the NF can release
  /// internal per-flow state it keyed by its own view of the flow.
  std::vector<std::function<void()>> teardown_hooks;
};

class LocalMat {
 public:
  LocalMat(std::string nf_name, std::size_t nf_index)
      : nf_name_(std::move(nf_name)), nf_index_(nf_index) {}

  const std::string& nf_name() const noexcept { return nf_name_; }
  std::size_t nf_index() const noexcept { return nf_index_; }

  void add_header_action(std::uint32_t fid, const HeaderAction& action) {
    const std::lock_guard lock(mutex_);
    record(fid).header_actions.push_back(action);
  }
  void add_state_function(std::uint32_t fid, StateFunction fn) {
    const std::lock_guard lock(mutex_);
    record(fid).state_functions.push_back(std::move(fn));
  }

  /// Event-driven runtime updates (§V-C1): replace the flow's recorded
  /// actions/functions with the event's update.
  void replace_header_actions(std::uint32_t fid,
                              std::vector<HeaderAction> actions) {
    const std::lock_guard lock(mutex_);
    record(fid).header_actions = std::move(actions);
  }
  void replace_state_functions(std::uint32_t fid,
                               std::vector<StateFunction> functions) {
    const std::lock_guard lock(mutex_);
    record(fid).state_functions = std::move(functions);
  }

  void add_teardown_hook(std::uint32_t fid, std::function<void()> hook) {
    const std::lock_guard lock(mutex_);
    record(fid).teardown_hooks.push_back(std::move(hook));
  }

  /// Run (and consume) the flow's teardown hooks; called by the Global MAT
  /// right before the rule is erased. The hooks run outside the table lock
  /// (they call back into NF state).
  void run_teardown_hooks(std::uint32_t fid) {
    std::vector<std::function<void()>> hooks;
    {
      const std::lock_guard lock(mutex_);
      LocalRule* rule = rules_.find(fid);
      if (rule == nullptr) return;
      hooks.swap(rule->teardown_hooks);
    }
    for (const auto& hook : hooks) hook();
  }

  /// Read the flow's record in place, if it has one: `fn(const
  /// LocalRule&)` runs under the table lock, so nothing it reads escapes
  /// the lock and nothing is copied. `fn` must not call back into this
  /// table.
  template <class F>
  void visit(std::uint32_t fid, F&& fn) const {
    const std::lock_guard lock(mutex_);
    if (const LocalRule* rule = rules_.find(fid)) fn(*rule);
  }

  /// Borrowing lookup for single-threaded use (tests, inline inspection):
  /// the pointer is invalidated by erase_flow/clear and must not be held
  /// across concurrent mutation.
  const LocalRule* find(std::uint32_t fid) const {
    const std::lock_guard lock(mutex_);
    return rules_.find(fid);
  }

  bool contains(std::uint32_t fid) const {
    const std::lock_guard lock(mutex_);
    return rules_.contains(fid);
  }

  /// Flow teardown (FIN/RST, §VI-B): free the rule.
  void erase_flow(std::uint32_t fid) {
    const std::lock_guard lock(mutex_);
    rules_.erase(fid);
  }

  std::size_t size() const noexcept {
    const std::lock_guard lock(mutex_);
    return rules_.size();
  }
  void clear() {
    const std::lock_guard lock(mutex_);
    rules_.clear();
  }

 private:
  /// Find-or-create the flow's record; caller holds the lock.
  LocalRule& record(std::uint32_t fid) {
    return *rules_.try_emplace(fid).first;
  }

  std::string nf_name_;
  std::size_t nf_index_;
  mutable std::mutex mutex_;
  FlowTable<std::uint32_t, LocalRule> rules_;
};

}  // namespace speedybox::core
