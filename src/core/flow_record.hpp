// One flow's SpeedyBox state (§IV–V, DESIGN.md §2.2). The paper's Local
// MATs and Event Table are logical tables: per NF, the record keeps the
// header actions, state functions, events and teardown hooks the NF
// recorded on the flow's initial packet, each tagged with the NF's chain
// position, in chain order. The rule the Global MAT consolidates from
// them is compiled into the same record. A fired event rewrites the
// owning NF's entries and the record is recompiled in place.
//
// Every recorded handler, event condition, event update and teardown hook
// is a util::InlineFunction: a function pointer with its captures held in
// place, trivially copyable and trivially destructible. Names are views of
// strings the NF built once. So once a slot's arrays have grown to a flow's
// size, setting up, compiling and tearing down the next flow at that slot
// allocates nothing and frees nothing.
//
// The Global MAT keeps each record at its FID's slot of an array whose
// addresses never move (core/global_mat.hpp). Freeing a record clears it
// but keeps its arrays' capacity for the next flow at the slot.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/header_action.hpp"
#include "core/parallel_schedule.hpp"
#include "core/state_function.hpp"
#include "net/packet.hpp"
#include "util/inline_function.hpp"
#include "util/prefetch.hpp"

namespace speedybox::core {

/// What a triggered event installs into the owning NF's recorded entries
/// (§V-C1, Fig. 3).
struct EventUpdate {
  std::optional<std::vector<HeaderAction>> header_actions;
  std::optional<std::vector<StateFunction>> state_functions;
};

/// Predicate over NF internal state ("state.matchCondition" in Fig. 1).
/// NFs bind the per-flow cells they resolved while recording (Figure 2's
/// args), so evaluating it never re-looks-up the flow.
using ConditionHandler = util::InlineFunction<bool()>;

/// Produces the update at trigger time (so e.g. Maglev can compute the new
/// backend with consistent hashing at the moment of failover).
using UpdateHandler = util::InlineFunction<EventUpdate()>;

/// Releases NF-internal per-flow state at teardown (FIN/RST): on the fast
/// path the NF never sees the flow's last packet.
using TeardownHandler = util::InlineFunction<void()>;

/// A registered event. Its condition sits at the same index of the
/// record's `conditions`, the array the fast path scans.
struct EventRegistration {
  std::uint32_t nf_index = 0;  // whose entries the update rewrites
  std::string_view name;  // a string the NF keeps
  UpdateHandler update;
  /// One-shot events (the common case: failover, blacklist) deregister on
  /// trigger; persistent events keep being checked.
  bool one_shot = true;
  const void* args = nullptr;  // the state the condition reads (a hint)
};

/// A recorded state function. Its handler sits at the same index of the
/// record's `handlers`.
struct RecordedFunction {
  std::uint32_t nf_index = 0;  // chain position of the recording NF
  PayloadAccess access = PayloadAccess::kIgnore;
  std::string_view name;  // StateFunction::name
  const void* args = nullptr;  // StateFunction::args
};

/// A teardown handler, tagged with the recording NF's chain position.
struct TeardownHook {
  std::uint32_t nf_index = 0;
  TeardownHandler run;
};

/// The arrays a fast-path packet runs its state functions from. A threaded
/// deployment hands them to the NF cores with the packet.
struct HandlerArrays {
  std::span<const StateFunctionHandler> handlers;
  std::span<const StateFunctionBatch> batches;

  /// Run one NF's batch (its handlers, in recorded order).
  void run_batch(const StateFunctionBatch& batch, net::Packet& packet,
                 const net::ParsedPacket& parsed) const {
    for (std::uint32_t i = batch.begin; i < batch.end; ++i) {
      handlers[i](packet, parsed);
    }
  }
};

struct alignas(64) FlowRecord {
  /// Batch-cost sampling (cycle model only): the first kCostSampleWindow
  /// measured packets time every batch individually to learn the
  /// critical-path fraction of the Table-I schedule; afterwards the fast
  /// path times all batches with one timer pair and scales by the learned
  /// fraction.
  static constexpr std::uint32_t kCostSampleWindow = 8;
  /// Entries of `hot_addresses`; a flow whose fast path touches more lines
  /// warms the first ones only.
  static constexpr std::size_t kHotAddresses = 5;

  // --- What every default fast-path packet reads, first: the batch's
  // classify pass prefetches these leading lines (GlobalMat::prefetch),
  // and the warm pass then prefetches the addresses they name.
  bool open = false;          // the slot holds a live flow
  bool consolidated = false;  // the rule below is compiled
  /// The consolidated action restructures the header chain (decap or
  /// encap), so state functions need a fresh parse of the packet.
  bool reparse = false;
  /// Pre-consolidated pure-forward rule installed instead of recording
  /// while the path is degraded (runtime overload control, DESIGN.md §9):
  /// the fast path runs no event and no state function; teardown still
  /// runs the hooks.
  bool degraded_default = false;
  std::uint8_t hot_count = 0;  // live entries of `hot_addresses`
  /// Rebuild `batches` and the schedule at the next compile. Set only by
  /// recording and by replace_state_functions, which first retires the
  /// arrays in-flight descriptors may still read: compile() must never
  /// rewrite `handlers` or `batches` in place, since a header-only event
  /// (Maglev failover) recompiles while other cores read them. (Kept in
  /// this word, which has room, so the record stays at nine lines.)
  bool functions_changed = false;
  std::vector<ConditionHandler> conditions;  // of `events`
  /// The handlers of `functions`, in chain order: the fast path runs
  /// straight through them.
  std::vector<StateFunctionHandler> handlers;
  /// The lines a fast-path packet reads beyond these leading ones, as
  /// compile() found them: the condition and handler arrays, then the
  /// recorded args of each event and state function (Figure 2's arg_list),
  /// one entry per cache line. Prefetch hints only.
  std::array<const void*, kHotAddresses> hot_addresses{};
  ConsolidatedAction action;
  BytePatch patch;  // compiled field writes (lazy)

  // --- Read by the cycle model, the threaded pipeline and compile().
  /// Per-NF batches as index ranges into `handlers`, chain order — what
  /// the Table-I schedule, the cost-sampling window and the threaded
  /// pipeline's NF stages use.
  std::vector<StateFunctionBatch> batches;
  ParallelSchedule schedule;  // Table-I grouping of batches
  std::uint64_t version = 0;  // bumped on every (re)compile
  std::uint32_t cost_samples = 0;
  /// Parallel groups with ≥2 batches (each pays one fork/join in the
  /// platform latency model) — a per-packet constant of the schedule.
  std::uint32_t multi_batch_groups = 0;
  double critical_fraction = 1.0;

  // --- The recordings, in chain order.
  std::vector<EventRegistration> events;
  std::vector<RecordedFunction> functions;
  std::vector<HeaderAction> header_actions;
  std::vector<std::uint32_t> action_owners;  // NF index of each action
  std::vector<TeardownHook> teardown_hooks;
  /// Handler and batch arrays an event replaced: in-flight descriptors of
  /// a threaded deployment may still run them, so they live until the
  /// flow's teardown.
  std::vector<std::pair<std::vector<StateFunctionHandler>,
                        std::vector<StateFunctionBatch>>>
      retired;

  // --- Recording (SpeedyBoxContext), by the NF at chain position `nf`.
  // The recording pass walks the chain, so entries arrive in chain order.
  void add_header_action(std::uint32_t nf, const HeaderAction& action);
  void add_state_function(std::uint32_t nf, const StateFunction& fn);
  void add_teardown_hook(std::uint32_t nf, TeardownHandler hook);
  void register_event(std::uint32_t nf, std::string_view name,
                      ConditionHandler condition, UpdateHandler update,
                      bool one_shot, const void* args = nullptr);

  // --- Event updates (§V-C1): replace NF `nf`'s entries.
  void replace_header_actions(std::uint32_t nf,
                              std::vector<HeaderAction> actions);
  void replace_state_functions(std::uint32_t nf,
                               std::vector<StateFunction> fns);

  /// NF `nf`'s recorded header actions.
  std::span<const HeaderAction> header_actions_of(std::uint32_t nf) const;
  HandlerArrays handler_arrays() const noexcept { return {handlers, batches}; }

  /// Compile the rule from the recordings: the consolidated header action,
  /// the batches and schedule when the functions changed, and the hot
  /// addresses. Restarts cost sampling and bumps the version.
  void compile();
  /// Run the teardown hooks of the NFs at chain positions [begin, end).
  void run_teardown_hooks(std::uint32_t begin = 0,
                          std::uint32_t end = UINT32_MAX) const;
  /// Back to an empty record, keeping the arrays' capacity.
  void reset();
};

// What lets reset() free nothing: every recorded entry is plain bytes.
static_assert(std::is_trivially_copyable_v<RecordedFunction> &&
                  std::is_trivially_copyable_v<EventRegistration> &&
                  std::is_trivially_copyable_v<TeardownHook> &&
                  std::is_trivially_copyable_v<StateFunctionHandler> &&
                  std::is_trivially_copyable_v<ConditionHandler>,
              "a recorded entry owns memory");

/// The record's leading lines, through the patch: every field the default
/// fast path reads lies at or before it. GlobalMat::prefetch warms them.
inline constexpr std::size_t kFlowRecordHotLines =
    (offsetof(FlowRecord, patch) + sizeof(FlowRecord::patch) +
     util::kCacheLineSize - 1) /
    util::kCacheLineSize;

// A field the default fast path reads, moved past the patch, would fall out
// of the warmed lines; an inserted field must not grow the record either.
static_assert(offsetof(FlowRecord, hot_count) < offsetof(FlowRecord, patch) &&
                  offsetof(FlowRecord, conditions) <
                      offsetof(FlowRecord, patch) &&
                  offsetof(FlowRecord, handlers) <
                      offsetof(FlowRecord, patch) &&
                  offsetof(FlowRecord, hot_addresses) <
                      offsetof(FlowRecord, patch) &&
                  offsetof(FlowRecord, action) < offsetof(FlowRecord, patch),
              "a field the default fast path reads lies past the warmed lines");
static_assert(sizeof(FlowRecord) <= 9 * util::kCacheLineSize,
              "FlowRecord grew past nine cache lines");

}  // namespace speedybox::core
