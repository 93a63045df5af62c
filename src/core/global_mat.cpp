#include "core/global_mat.hpp"

#include <iterator>

#include "util/cycle_clock.hpp"
#include "util/logging.hpp"

namespace speedybox::core {

FlowRecord& GlobalMat::slot(std::uint32_t fid) {
  const std::size_t chunk = fid >> kChunkBits;
  while (chunks_.size() <= chunk) {
    chunks_.push_back(std::make_unique<FlowRecord[]>(kChunkMask + 1));
  }
  return chunks_[chunk][fid & kChunkMask];
}

FlowRecord& GlobalMat::open_flow(std::uint32_t fid) {
  FlowRecord& record = slot(fid);
  if (record.open) erase_flow(fid, /*run_hooks=*/false);
  record.open = true;
  ++open_;
  return record;
}

void GlobalMat::compile(FlowRecord& record) {
  if (!record.consolidated) ++compiled_;
  record.compile();
  ++consolidations_;
}

void GlobalMat::consolidate_flow(std::uint32_t fid) {
  FlowRecord* record = this->record(fid);
  if (record == nullptr) record = &open_flow(fid);
  compile(*record);
  SB_LOG_DEBUG("global_mat", "consolidated fid=%u v=%llu: %s", fid,
               static_cast<unsigned long long>(record->version),
               record->action.to_string().c_str());
}

std::size_t GlobalMat::check_events(std::uint32_t fid, FlowRecord& record) {
  // Evaluate every condition first, then fire: an update may change the
  // NF state a later condition reads, and the conditions of one packet
  // all see the state before any update. One-shot events deregister as
  // they fire.
  std::vector<EventRegistration> fired;
  std::uint64_t evaluated = 0;
  for (std::ptrdiff_t i = 0; i < std::ssize(record.conditions); ++evaluated) {
    const ConditionHandler& condition = record.conditions[i];
    if (!condition || !condition()) {
      ++i;
    } else if (!record.events[i].one_shot) {
      fired.push_back(record.events[i++]);
    } else {
      fired.push_back(record.events[i]);
      record.conditions.erase(record.conditions.begin() + i);
      record.events.erase(record.events.begin() + i);
    }
  }
  bump(checks_, evaluated);
  bump(triggers_, fired.size());

  for (EventRegistration& event : fired) {
    EventUpdate update = event.update ? event.update() : EventUpdate{};
    if (update.header_actions) {
      record.replace_header_actions(event.nf_index,
                                    std::move(*update.header_actions));
    }
    if (update.state_functions) {
      record.replace_state_functions(event.nf_index,
                                     std::move(*update.state_functions));
    }
    SB_LOG_INFO("event_table", "event '%.*s' triggered for fid=%u",
                static_cast<int>(event.name.size()), event.name.data(), fid);
    compile(record);
  }
  return fired.size();
}

FlowRecord* GlobalMat::apply_header_phase(net::Packet& packet, bool* dropped,
                                          std::size_t* events_triggered) {
  const std::uint32_t fid = packet.fid();
  FlowRecord* rule = slot_if_allocated(fid);
  if (rule == nullptr || !rule->consolidated) return nullptr;

  // 1. Event check (§V-A Observation 2): decide whether the consolidated
  //    result can be reused before reusing it. A fired event recompiles
  //    the record in place, so this packet runs the updated rule.
  if (!rule->conditions.empty() && !rule->degraded_default) {
    *events_triggered = check_events(fid, *rule);
  }

  // 2. Consolidated header action.
  apply_consolidated(rule->action, rule->patch, packet);
  *dropped = packet.dropped();
  return rule;
}

GlobalMat::FastHeaderResult GlobalMat::process_header(net::Packet& packet) {
  FastHeaderResult result;
  FlowRecord* rule = apply_header_phase(packet, &result.dropped,
                                        &result.events_triggered);
  result.rule_hit = rule != nullptr;
  if (rule != nullptr) {
    result.degraded_rule = rule->degraded_default;
    result.record = rule;
    if (!rule->degraded_default) result.handlers = rule->handler_arrays();
  }
  return result;
}

GlobalMat::FastPathResult GlobalMat::process(
    net::Packet& packet, const net::ParsedPacket* parsed_hint, bool model) {
  FastPathResult result;
  FlowRecord* rule_ref = apply_header_phase(packet, &result.dropped,
                                            &result.events_triggered);
  if (rule_ref == nullptr) return result;
  result.rule_hit = true;
  result.degraded_rule = rule_ref->degraded_default;
  if (result.dropped) {
    return result;  // early drop: no state function runs for dropped flows
  }
  FlowRecord& rule = *rule_ref;

  // 3. State-function handlers. Execution is in chain order
  //    (correctness); the parallel schedule provides the modeled
  //    critical-path latency the platforms account for (§V-C2). The
  //    classifier's parse is reused unless the consolidated action
  //    restructured the header chain.
  if (rule.handlers.empty() || rule.degraded_default) return result;
  std::optional<net::ParsedPacket> reparsed;
  if (rule.reparse || parsed_hint == nullptr) {
    reparsed = net::parse_packet(packet);
    if (!reparsed) return result;
  }
  const net::ParsedPacket& parsed = reparsed ? *reparsed : *parsed_hint;

  if (!model) {
    for (const auto& handler : rule.handlers) handler(packet, parsed);
    return result;
  }
  result.multi_batch_groups = rule.multi_batch_groups;
  if (rule.cost_samples < FlowRecord::kCostSampleWindow) {
    // Sampling phase: one timer pair per batch to learn the Table-I
    // critical-path fraction of this rule's schedule.
    const HandlerArrays handlers = rule.handler_arrays();
    std::vector<std::uint64_t>& costs = batch_costs_;
    costs.assign(rule.batches.size(), 0);
    result.timer_pairs = static_cast<std::uint32_t>(rule.batches.size());
    for (std::size_t i = 0; i < rule.batches.size(); ++i) {
      const std::uint64_t b0 = util::CycleClock::now();
      handlers.run_batch(rule.batches[i], packet, parsed);
      costs[i] = util::CycleClock::segment(b0, util::CycleClock::now());
    }
    for (const std::uint64_t cost : costs) result.sf_total_cycles += cost;
    result.sf_critical_path_cycles = rule.schedule.critical_path(costs);
    const double fraction =
        result.sf_total_cycles > 0
            ? static_cast<double>(result.sf_critical_path_cycles) /
                  static_cast<double>(result.sf_total_cycles)
            : 1.0;
    // Running mean of the fraction over the sample window.
    rule.critical_fraction =
        (rule.critical_fraction * rule.cost_samples + fraction) /
        (rule.cost_samples + 1);
    ++rule.cost_samples;
  } else {
    // Steady state: one timer pair regardless of batch count.
    result.timer_pairs = 1;
    const std::uint64_t t0 = util::CycleClock::now();
    for (const auto& handler : rule.handlers) handler(packet, parsed);
    result.sf_total_cycles =
        util::CycleClock::segment(t0, util::CycleClock::now());
    result.sf_critical_path_cycles = static_cast<std::uint64_t>(
        static_cast<double>(result.sf_total_cycles) *
        rule.critical_fraction);
  }
  return result;
}

void GlobalMat::install_default_rule(std::uint32_t fid) {
  FlowRecord* record = this->record(fid);
  if (record == nullptr) record = &open_flow(fid);
  if (!record->consolidated) ++compiled_;
  record->consolidated = true;
  record->degraded_default = true;
  record->hot_count = 0;  // the default rule runs no condition or handler
  record->action = ConsolidatedAction{};
  record->patch = BytePatch{};
  ++record->version;
  SB_LOG_DEBUG("global_mat", "degraded default rule for fid=%u", fid);
}

void GlobalMat::erase_flow(std::uint32_t fid, bool run_hooks) {
  FlowRecord* record = this->record(fid);
  if (record == nullptr) return;
  if (run_hooks) record->run_teardown_hooks();
  if (record->consolidated) --compiled_;
  --open_;
  record->reset();
}

FlowTableStats GlobalMat::record_stats() const noexcept {
  FlowTableStats stats;
  stats.slab_bytes = chunks_.size() * (kChunkMask + 1) * sizeof(FlowRecord);
  stats.slab_records = open_;
  return stats;
}

}  // namespace speedybox::core
