#include "core/global_mat.hpp"

#include "util/cycle_clock.hpp"
#include "util/logging.hpp"

namespace speedybox::core {

void GlobalMat::consolidate_flow(std::uint32_t fid) {
  // A fresh rule object per consolidation: in-flight holders of the old
  // snapshot stay consistent; the table points new packets at the new rule.
  auto rule = std::make_shared<ConsolidatedRule>();
  std::vector<HeaderAction> all_actions;
  for (const LocalMat* mat : chain_) {
    mat->visit(fid, [&](const LocalRule& record) {
      all_actions.insert(all_actions.end(), record.header_actions.begin(),
                         record.header_actions.end());
      if (record.state_functions.empty()) return;
      StateFunctionBatch batch;
      batch.nf_index = static_cast<std::uint32_t>(mat->nf_index());
      batch.begin = static_cast<std::uint32_t>(rule->handlers.size());
      for (const StateFunction& fn : record.state_functions) {
        rule->handlers.push_back(fn.handler);
      }
      batch.end = static_cast<std::uint32_t>(rule->handlers.size());
      batch.access = batch_access(record.state_functions);
      rule->batches.push_back(batch);
    });
  }

  const auto* existing = rules_.find(fid);
  rule->version = (existing != nullptr ? (*existing)->version : 0) + 1;
  rule->action = consolidate(all_actions);
  rule->reparse = !rule->action.leading_decaps.empty() ||
                  !rule->action.trailing_encaps.empty();
  rule->schedule = build_schedule(rule->batches);
  for (const auto& group : rule->schedule.groups) {
    if (group.size() > 1) ++rule->multi_batch_groups;
  }
  events_.copy_conditions(fid, rule->conditions);
  ++consolidations_;

  SB_LOG_DEBUG("global_mat", "consolidated fid=%u v=%llu: %s", fid,
               static_cast<unsigned long long>(rule->version),
               rule->action.to_string().c_str());
  rules_.insert_or_assign(fid, std::move(rule));
}

bool GlobalMat::any_condition_holds(const ConsolidatedRule& rule) {
  std::uint64_t evaluated = 0;
  bool holds = false;
  for (const ConditionHandler& condition : rule.conditions) {
    ++evaluated;
    if (condition()) {
      holds = true;
      break;
    }
  }
  events_.count_checks(evaluated);
  return holds;
}

ConsolidatedRule* GlobalMat::apply_header_phase(
    net::Packet& packet, bool* dropped, std::size_t* events_triggered) {
  const std::uint32_t fid = packet.fid();
  const auto* cell = rules_.find(fid);
  if (cell == nullptr) return nullptr;
  // Borrowed pointer, no refcount traffic on the per-packet path. An event
  // below installs (and frees) a *new* rule object, so re-fetch afterwards
  // to process this packet against the updated rule.
  ConsolidatedRule* rule_ref = cell->get();

  // 1. Event check (§V-A Observation 2): decide whether the consolidated
  //    result can be reused before reusing it. The rule's own condition
  //    copies decide; only a condition that holds pays for the Event
  //    Table (its lock, the firing and the re-consolidation).
  if (!rule_ref->conditions.empty() && any_condition_holds(*rule_ref)) {
    *events_triggered = events_.check(
        fid, [this, fid](const EventRegistration& event, EventUpdate update) {
          if (event.nf_index < chain_.size()) {
            LocalMat* mat = chain_[event.nf_index];
            if (update.header_actions) {
              mat->replace_header_actions(fid,
                                          std::move(*update.header_actions));
            }
            if (update.state_functions) {
              mat->replace_state_functions(fid,
                                           std::move(*update.state_functions));
            }
          }
          SB_LOG_INFO("event_table", "event '%s' triggered for fid=%u",
                      event.name.c_str(), fid);
          consolidate_flow(fid);
        });
    if (*events_triggered > 0) {
      const auto* updated = rules_.find(fid);
      if (updated == nullptr) return nullptr;
      rule_ref = updated->get();
    }
  }

  // 2. Consolidated header action.
  apply_consolidated(rule_ref->action, rule_ref->patch, packet);
  *dropped = packet.dropped();
  return rule_ref;
}

GlobalMat::FastHeaderResult GlobalMat::process_header(net::Packet& packet) {
  FastHeaderResult result;
  const ConsolidatedRule* rule = apply_header_phase(
      packet, &result.dropped, &result.events_triggered);
  result.rule_hit = rule != nullptr;
  if (rule != nullptr) {
    result.degraded_rule = rule->degraded_default;
    // Threaded callers need an owning pin: the descriptor outlives this
    // call and must survive a concurrent re-consolidation.
    result.rule = find_shared(packet.fid());
  }
  return result;
}

GlobalMat::FastPathResult GlobalMat::process(
    net::Packet& packet, bool measure_batches,
    const net::ParsedPacket* parsed_hint) {
  FastPathResult result;
  auto rule_ref = apply_header_phase(packet, &result.dropped,
                                     &result.events_triggered);
  if (rule_ref == nullptr) return result;
  result.rule_hit = true;
  result.degraded_rule = rule_ref->degraded_default;
  if (result.dropped) {
    return result;  // early drop: no state function runs for dropped flows
  }
  ConsolidatedRule& rule = *rule_ref;

  // 3. State-function handlers. Execution is in chain order
  //    (correctness); the parallel schedule provides the modeled
  //    critical-path latency the platforms account for (§V-C2). The
  //    classifier's parse is reused unless the consolidated action
  //    restructured the header chain.
  if (rule.handlers.empty()) return result;
  std::optional<net::ParsedPacket> reparsed;
  if (rule.reparse || parsed_hint == nullptr) {
    reparsed = net::parse_packet(packet);
    if (!reparsed) return result;
  }
  const net::ParsedPacket& parsed = reparsed ? *reparsed : *parsed_hint;

  if (!measure_batches) {
    for (const auto& handler : rule.handlers) handler(packet, parsed);
    return result;
  }
  result.multi_batch_groups = rule.multi_batch_groups;
  if (rule.cost_samples < ConsolidatedRule::kCostSampleWindow) {
    // Sampling phase: one timer pair per batch to learn the Table-I
    // critical-path fraction of this rule's schedule.
    std::vector<std::uint64_t>& costs = batch_costs_;
    costs.assign(rule.batches.size(), 0);
    result.timer_pairs = static_cast<std::uint32_t>(rule.batches.size());
    for (std::size_t i = 0; i < rule.batches.size(); ++i) {
      const std::uint64_t b0 = util::CycleClock::now();
      rule.run_batch(rule.batches[i], packet, parsed);
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
  auto rule = std::make_shared<ConsolidatedRule>();
  const auto* existing = rules_.find(fid);
  rule->version = (existing != nullptr ? (*existing)->version : 0) + 1;
  rule->degraded_default = true;
  SB_LOG_DEBUG("global_mat", "degraded default rule for fid=%u", fid);
  rules_.insert_or_assign(fid, std::move(rule));
}

void GlobalMat::erase_flow(std::uint32_t fid, bool run_hooks) {
  rules_.erase(fid);
  events_.erase_flow(fid);
  for (LocalMat* mat : chain_) {
    if (run_hooks) mat->run_teardown_hooks(fid);
    mat->erase_flow(fid);
  }
}

void GlobalMat::clear() {
  rules_.clear();
  events_.clear();
  for (LocalMat* mat : chain_) mat->clear();
}

}  // namespace speedybox::core
