#include "nf/dos_prevention.hpp"

#include "nf/flow_state.hpp"

namespace speedybox::nf {

DosPrevention::DosPrevention(std::uint64_t syn_threshold,
                             core::HeaderAction normal_action,
                             std::string name)
    : NetworkFunction(std::move(name)),
      threshold_(syn_threshold),
      normal_action_(normal_action) {}

void DosPrevention::process(net::Packet& packet,
                            core::SpeedyBoxContext* ctx) {
  count_packet();
  const auto parsed = parse_and_check(packet);  // R1: per-NF parse+validate
  if (!parsed) return;
  const auto flow =
      core::HashedTuple::of(net::extract_five_tuple(packet, *parsed));
  const net::FiveTuple tuple = flow.tuple;

  // Check-then-count: the drop verdict is based on the state *before* this
  // packet, matching the Event Table semantics where conditions are
  // evaluated on arrival (the packet that crosses the threshold still
  // passes; the next one is dropped — Fig. 3).
  FlowState* flow_args = nullptr;
  {
    const std::lock_guard lock(mutex_);
    FlowState& state = *flows_.try_emplace(tuple, flow.hash).first;
    if (state.blacklisted || state.syn_count > threshold_) {
      state.blacklisted = true;
      packet.mark_dropped();
      ++drops_;
      return;
    }
    if (parsed->has_syn()) ++state.syn_count;
    // Recorded args: the flow's resolved counter cell (Figure 2) —
    // a slab record, pointer-stable across table resizes.
    flow_args = &state;
  }
  core::apply_action_baseline(normal_action_, packet);

  if (ctx != nullptr) record(tuple, flow_args, /*blacklisted=*/false, *ctx);
}

std::uint64_t DosPrevention::syn_count(const net::FiveTuple& tuple) const {
  const std::lock_guard lock(mutex_);
  const FlowState* state = flows_.find(tuple);
  return state == nullptr ? 0 : state->syn_count;
}

bool DosPrevention::is_blacklisted(const net::FiveTuple& tuple) const {
  const std::lock_guard lock(mutex_);
  const FlowState* state = flows_.find(tuple);
  return state != nullptr && state->blacklisted;
}

void DosPrevention::on_flow_teardown(const net::FiveTuple& tuple) {
  const std::lock_guard lock(mutex_);
  flows_.erase(tuple);
}

std::optional<std::vector<std::uint8_t>> DosPrevention::export_flow_state(
    const net::FiveTuple& tuple) {
  const std::lock_guard lock(mutex_);
  return flows_.export_state(tuple);
}

void DosPrevention::import_flow_state(const net::FiveTuple& tuple,
                                      std::span<const std::uint8_t> bytes,
                                      core::SpeedyBoxContext* ctx) {
  FlowState* flow_args = nullptr;
  bool blacklisted = false;
  {
    const std::lock_guard lock(mutex_);
    FlowState& state = flows_.import_state(tuple, bytes);
    blacklisted = state.blacklisted;
    flow_args = &state;
  }
  if (ctx != nullptr) record(tuple, flow_args, blacklisted, *ctx);
}

void DosPrevention::record(const net::FiveTuple& tuple, FlowState* flow_args,
                           bool blacklisted, core::SpeedyBoxContext& ctx) {
  // A flow imported after its blacklist event fired on the source shard
  // re-records the post-event rule (drop + the still-live SYN counter)
  // without re-arming the one-shot event.
  ctx.add_header_action(blacklisted ? core::HeaderAction::drop()
                                    : normal_action_);
  core::localmat_add_SF(
      &ctx,
      [this, flow_args](net::Packet&, const net::ParsedPacket& p) {
        const std::lock_guard lock(mutex_);
        if (p.has_syn()) ++flow_args->syn_count;
      },
      core::PayloadAccess::kIgnore, syn_count_name_, flow_args);
  if (!blacklisted) {
    // The condition and the update read the flow's bound FlowState, as
    // the SYN-counting handler does — no per-packet flow lookup.
    ctx.register_event(
        blacklist_name_,
        [this, flow_args]() {
          const std::lock_guard lock(mutex_);
          return flow_args->syn_count > threshold_;
        },
        [this, flow_args]() {
          const std::lock_guard lock(mutex_);
          flow_args->blacklisted = true;
          ++drops_;  // accounted per-flow, not per-packet, on the fast path
          core::EventUpdate update;
          update.header_actions = {core::HeaderAction::drop()};
          return update;
        },
        /*one_shot=*/true, flow_args);
  }
  ctx.on_teardown([this, tuple]() {
    const std::lock_guard lock(mutex_);
    flows_.erase(tuple);
  });
}

}  // namespace speedybox::nf
