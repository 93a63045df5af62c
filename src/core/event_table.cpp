#include "core/event_table.hpp"

namespace speedybox::core {

void EventTable::copy_conditions(std::uint32_t fid,
                                 std::vector<ConditionHandler>& out) const {
  const std::lock_guard lock(mutex_);
  const auto* list = events_.find(fid);
  if (list == nullptr) return;
  for (const EventRegistration& event : *list) {
    if (event.condition) out.push_back(event.condition);
  }
}

std::size_t EventTable::check(
    std::uint32_t fid,
    const std::function<void(const EventRegistration&, EventUpdate)>&
        on_trigger) {
  // Phase 1 (under the lock): evaluate conditions, pull out the triggered
  // registrations, deregister one-shots. Conditions are NF-state
  // predicates; they must not re-enter the event table.
  std::vector<EventRegistration> fired;
  {
    const std::lock_guard lock(mutex_);
    auto* list = events_.find(fid);
    if (list == nullptr) return 0;
    bump(checks_, list->size());
    for (std::size_t i = 0; i < list->size();) {
      EventRegistration& event = (*list)[i];
      if (event.condition && event.condition()) {
        fired.push_back(event);
        if (event.one_shot) {
          list->erase(list->begin() + static_cast<std::ptrdiff_t>(i));
          continue;  // next event shifted into slot i
        }
      }
      ++i;
    }
    if (list->empty()) events_.erase(fid);
  }
  bump(triggers_, fired.size());

  // Phase 2 (outside the lock): compute updates and notify — the callback
  // re-consolidates the flow, which reads this table again.
  for (const EventRegistration& event : fired) {
    EventUpdate update = event.update ? event.update() : EventUpdate{};
    on_trigger(event, std::move(update));
  }
  return fired.size();
}

}  // namespace speedybox::core
