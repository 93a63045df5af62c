// SpeedyBox instrumentation APIs (§IV-B, Figure 2).
//
// An NF receives a SpeedyBoxContext while processing the *initial* packet of
// a flow on the recording path, and uses it to describe what it just did:
//
//   ctx->add_header_action(HeaderAction::modify(kDstPort, 8080));
//   ctx->add_state_function({handler, PayloadAccess::kRead, "inspect", cell});
//   ctx->register_event("failover", condition, update, false, cell);
//
// The calls only *record* behavior — they never change the NF's own
// processing — which is why integrating an NF takes a handful of lines
// (Table II). Each call appends to the flow's record (core/flow_record.hpp)
// under the NF's chain position, with no lock and no table lookup. On the
// baseline path and for pure observation the context is null and NFs
// behave exactly as unmodified NFs.
//
// Figure 2 records each handler with its `args* arg_list`. Here a handler,
// condition, update or teardown hook is a util::InlineFunction: a function
// pointer with its captures held inline, at most 32 bytes and trivially
// copyable (`[this, cell]`, `[this, tuple]`, `[this, tuple, cell]`). A
// lambda that captures more, or captures a std::vector or std::string,
// does not compile; capture a pointer to state the NF owns instead. So
// recording allocates nothing. The args pointer names the captured state's
// address: the flow record lists it, and the batch's warm pass prefetches
// it before the packet runs the handler (DESIGN.md §8). The args are a
// hint: a null or wrong pointer changes no output. Names are views: pass a
// string the NF keeps, built once per instance, not one built per flow.
//
// The free functions at the bottom mirror Figure 2's C-style signatures
// one-for-one for fidelity with the paper; they are thin wrappers over the
// context methods.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/flow_record.hpp"
#include "core/header_action.hpp"
#include "core/state_function.hpp"
#include "net/packet.hpp"

namespace speedybox::core {

class SpeedyBoxContext {
 public:
  /// Record into `record` as the NF at chain position `nf_index`.
  SpeedyBoxContext(FlowRecord& record, std::size_t nf_index,
                   std::uint32_t fid) noexcept
      : record_(&record),
        nf_index_(static_cast<std::uint32_t>(nf_index)),
        fid_(fid) {}

  std::uint32_t fid() const noexcept { return fid_; }

  /// Figure 2: localmat_add_HA.
  void add_header_action(const HeaderAction& action) {
    record_->add_header_action(nf_index_, action);
  }

  /// Figure 2: localmat_add_SF.
  void add_state_function(const StateFunction& fn) {
    record_->add_state_function(nf_index_, fn);
  }

  /// Release NF-internal per-flow state when the flow is torn down. On the
  /// fast path the NF never sees the FIN/RST packet, so cleanup it would do
  /// inline runs through this hook instead.
  void on_teardown(TeardownHandler hook) {
    record_->add_teardown_hook(nf_index_, hook);
  }

  /// Figure 2: register_event. `args` is the state the condition reads.
  void register_event(std::string_view name, ConditionHandler condition,
                      UpdateHandler update, bool one_shot = true,
                      const void* args = nullptr) {
    record_->register_event(nf_index_, name, condition, update, one_shot,
                            args);
  }

 private:
  FlowRecord* record_;
  std::uint32_t nf_index_;
  std::uint32_t fid_;
};

// --- Figure-2 literal surface ---------------------------------------------

/// "int nf_extract_fid(packet_descriptor*)": the FID the classifier attached
/// to the descriptor.
inline std::uint32_t nf_extract_fid(const net::Packet& packet) noexcept {
  return packet.fid();
}

/// "void localmat_add_HA(int FID, HA header_action, args* arg_list)".
inline void localmat_add_HA(SpeedyBoxContext* ctx,
                            const HeaderAction& header_action) {
  if (ctx != nullptr) ctx->add_header_action(header_action);
}

/// "void localmat_add_SF(int FID, function_handler*, int function_type,
///  args* arg_list)". `arg_list` is the per-flow state `fn` reads.
inline void localmat_add_SF(SpeedyBoxContext* ctx, StateFunctionHandler fn,
                            PayloadAccess function_type,
                            std::string_view name = {},
                            const void* arg_list = nullptr) {
  if (ctx != nullptr) {
    ctx->add_state_function(StateFunction{fn, function_type, name, arg_list});
  }
}

/// "void register_event(int FID, condition_handler*, args* arg_list,
///  HA update_action, update_function_handler*)". `arg_list` is the
/// per-flow state `condition` reads.
inline void register_event(SpeedyBoxContext* ctx, std::string_view name,
                           ConditionHandler condition, UpdateHandler update,
                           bool one_shot = true,
                           const void* arg_list = nullptr) {
  if (ctx != nullptr) {
    ctx->register_event(name, condition, update, one_shot, arg_list);
  }
}

}  // namespace speedybox::core
