// DoS-prevention NF: the paper's Fig. 3 walkthrough example of the Event
// Table. Monitors the number of TCP SYN flags per flow; while under the
// threshold the flow gets its normal header action, and when the counter
// exceeds the threshold an event replaces the action with drop — on the
// fast path this is a registered event that rewrites the NF's recorded
// header action and re-consolidates the flow's rule, exactly as in Fig. 3.
#pragma once

#include <cstdint>
#include <mutex>

#include "nf/flow_state.hpp"
#include "nf/network_function.hpp"

namespace speedybox::nf {

class DosPrevention : public NetworkFunction {
 public:
  /// `normal_action`: what the NF does to non-attack traffic (Fig. 3 shows
  /// a modify; forward by default).
  explicit DosPrevention(
      std::uint64_t syn_threshold,
      core::HeaderAction normal_action = core::HeaderAction::forward(),
      std::string name = "dosprev");

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override;
  void on_flow_teardown(const net::FiveTuple& tuple) override;
  std::unique_ptr<NetworkFunction> clone() const override {
    return std::make_unique<DosPrevention>(threshold_, normal_action_,
                                           name());
  }

  // Migration payload: the flow's SYN count and blacklist flag. For a
  // not-yet-blacklisted flow the one-shot blacklist event is re-registered
  // so it fires at the same packet it would have on the source shard; for
  // an already-blacklisted flow only the drop action is re-recorded — the
  // event has fired, and re-arming it would double-count drops().
  bool supports_flow_migration() const override { return true; }
  std::optional<std::vector<std::uint8_t>> export_flow_state(
      const net::FiveTuple& tuple) override;
  void import_flow_state(const net::FiveTuple& tuple,
                         std::span<const std::uint8_t> bytes,
                         core::SpeedyBoxContext* ctx) override;

  std::uint64_t syn_count(const net::FiveTuple& tuple) const;
  bool is_blacklisted(const net::FiveTuple& tuple) const;
  std::uint64_t drops() const {
    const std::lock_guard lock(mutex_);
    return drops_;
  }

  core::FlowTableStats flow_state_stats() const override {
    const std::lock_guard lock(mutex_);
    return flows_.stats();
  }

 private:
  struct FlowState {
    std::uint64_t syn_count = 0;
    bool blacklisted = false;
  };

  /// Record the flow's action, SYN counter, blacklist event (unless it has
  /// already fired) and cleanup, bound to its FlowState — shared by the
  /// initial-packet path and flow-state import.
  void record(const net::FiveTuple& tuple, FlowState* flow_args,
              bool blacklisted, core::SpeedyBoxContext& ctx);

  std::uint64_t threshold_;
  core::HeaderAction normal_action_;
  /// Guards flows_ and drops_: the blacklist event lambdas run on the
  /// manager core (Global MAT event check) while the data path, the
  /// recorded SYN-counting state function, and the teardown hook run on
  /// this NF's core. Never held across a SpeedyBoxContext call (the Event
  /// Table invokes conditions under its own mutex — see MaglevLb).
  mutable std::mutex mutex_;
  FlowStateTable<FlowState> flows_;
  std::uint64_t drops_ = 0;
  // Recorded names, built once: flow records keep views of them.
  const std::string syn_count_name_ = name() + ".syn_count";
  const std::string blacklist_name_ = name() + ".blacklist";
};

}  // namespace speedybox::nf
