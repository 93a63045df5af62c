#include "core/flow_record.hpp"

#include <algorithm>
#include <functional>

#include "util/prefetch.hpp"

namespace speedybox::core {

namespace {

/// [begin, end) of NF `nf`'s entries, given each entry's owner (its
/// projection `owner`) in chain order.
template <typename Entries, typename Owner>
std::pair<std::ptrdiff_t, std::ptrdiff_t> owned_range(const Entries& entries,
                                                      std::uint32_t nf,
                                                      Owner owner) {
  const auto [first, last] = std::ranges::equal_range(entries, nf, {}, owner);
  return {first - entries.begin(), last - entries.begin()};
}

/// Fill `record.hot_addresses` with every cache line a fast-path packet
/// reads beyond the record's leading lines, each once, in the order it
/// reads them: the condition array, the handler array, then each
/// condition's and each state function's state.
void compile_hot_addresses(FlowRecord& record) {
  record.hot_count = 0;
  const auto add = [&record](const void* address) {
    if (address == nullptr || record.hot_count == FlowRecord::kHotAddresses) {
      return;
    }
    const auto line = [](const void* a) {
      return reinterpret_cast<std::uintptr_t>(a) / util::kCacheLineSize;
    };
    for (std::uint8_t i = 0; i < record.hot_count; ++i) {
      if (line(record.hot_addresses[i]) == line(address)) return;
    }
    record.hot_addresses[record.hot_count++] = address;
  };
  const auto add_array = [&add](const auto& array) {
    const auto* bytes = reinterpret_cast<const char*>(array.data());
    const std::size_t size = array.size() * sizeof(array.front());
    for (std::size_t offset = 0; offset < size;
         offset += util::kCacheLineSize) {
      add(bytes + offset);
    }
    if (size > 0) add(bytes + size - 1);
  };
  add_array(record.conditions);
  add_array(record.handlers);
  for (const EventRegistration& event : record.events) add(event.args);
  for (const RecordedFunction& function : record.functions) {
    add(function.args);
  }
}

}  // namespace

void FlowRecord::add_header_action(std::uint32_t nf,
                                   const HeaderAction& action) {
  header_actions.push_back(action);
  action_owners.push_back(nf);
}

void FlowRecord::add_state_function(std::uint32_t nf,
                                    const StateFunction& fn) {
  handlers.push_back(fn.handler);
  functions.push_back({nf, fn.access, fn.name, fn.args});
  functions_changed = true;
}

void FlowRecord::add_teardown_hook(std::uint32_t nf, TeardownHandler hook) {
  teardown_hooks.push_back({nf, hook});
}

void FlowRecord::register_event(std::uint32_t nf, std::string_view name,
                                ConditionHandler condition,
                                UpdateHandler update, bool one_shot,
                                const void* args) {
  conditions.push_back(condition);
  events.push_back({nf, name, update, one_shot, args});
}

void FlowRecord::replace_header_actions(std::uint32_t nf,
                                        std::vector<HeaderAction> actions) {
  const auto [begin, end] = owned_range(action_owners, nf, std::identity{});
  header_actions.erase(header_actions.begin() + begin,
                       header_actions.begin() + end);
  header_actions.insert(header_actions.begin() + begin, actions.begin(),
                        actions.end());
  action_owners.erase(action_owners.begin() + begin,
                      action_owners.begin() + end);
  action_owners.insert(action_owners.begin() + begin, actions.size(), nf);
}

void FlowRecord::replace_state_functions(std::uint32_t nf,
                                         std::vector<StateFunction> fns) {
  // Build the new handler array beside the old one: a descriptor in flight
  // on another core may still be running the old handlers, so the old
  // arrays are retired, not rewritten.
  const auto [begin, end] =
      owned_range(functions, nf, &RecordedFunction::nf_index);
  std::vector<StateFunctionHandler> next(handlers.begin(),
                                         handlers.begin() + begin);
  std::vector<RecordedFunction> infos;
  for (const StateFunction& fn : fns) {
    next.push_back(fn.handler);
    infos.push_back({nf, fn.access, fn.name, fn.args});
  }
  next.insert(next.end(), handlers.begin() + end, handlers.end());
  functions.erase(functions.begin() + begin, functions.begin() + end);
  functions.insert(functions.begin() + begin, infos.begin(), infos.end());
  retired.emplace_back(std::move(handlers), std::move(batches));
  handlers = std::move(next);
  batches = {};
  functions_changed = true;
}

std::span<const HeaderAction> FlowRecord::header_actions_of(
    std::uint32_t nf) const {
  const auto [begin, end] = owned_range(action_owners, nf, std::identity{});
  return std::span<const HeaderAction>{header_actions}.subspan(
      static_cast<std::size_t>(begin), static_cast<std::size_t>(end - begin));
}

void FlowRecord::compile() {
  consolidated = true;
  degraded_default = false;
  ++version;
  action = consolidate(header_actions);
  patch = BytePatch{};
  reparse = !action.leading_decaps.empty() || !action.trailing_encaps.empty();
  cost_samples = 0;
  critical_fraction = 1.0;
  compile_hot_addresses(*this);
  if (!functions_changed) return;
  functions_changed = false;
  // One batch per NF: a run of functions with the same owner.
  batches.clear();
  for (std::uint32_t i = 0; i < functions.size(); ++i) {
    const std::uint32_t nf = functions[i].nf_index;
    if (batches.empty() || batches.back().nf_index != nf) {
      batches.push_back({nf, i, i, PayloadAccess::kIgnore});
    }
    StateFunctionBatch& batch = batches.back();
    batch.end = i + 1;
    batch.access = std::max(batch.access, functions[i].access);
  }
  build_schedule(batches, schedule);
  multi_batch_groups = 0;
  for (std::size_t g = 0; g < schedule.group_count(); ++g) {
    if (schedule.group(g).size() > 1) ++multi_batch_groups;
  }
}

void FlowRecord::run_teardown_hooks(std::uint32_t begin,
                                    std::uint32_t end) const {
  for (const TeardownHook& hook : teardown_hooks) {
    if (hook.nf_index >= begin && hook.nf_index < end) hook.run();
  }
}

void FlowRecord::reset() {
  // The compiled action, patch and schedule are rebuilt by the next
  // compile() (or install of a default rule) before any packet reads them.
  open = false;
  consolidated = false;
  reparse = false;
  degraded_default = false;
  hot_count = 0;
  cost_samples = 0;
  critical_fraction = 1.0;
  conditions.clear();
  handlers.clear();
  batches.clear();
  multi_batch_groups = 0;
  version = 0;
  events.clear();
  functions.clear();
  header_actions.clear();
  action_owners.clear();
  teardown_hooks.clear();
  functions_changed = false;
  retired.clear();
}

}  // namespace speedybox::core
