#include "nf/snort_ids.hpp"

#include <stdexcept>
#include <string>

#include "nf/flow_state.hpp"
#include "util/prefetch.hpp"

namespace speedybox::nf {

SnortIds::SnortIds(std::vector<SnortRule> rules, std::string name)
    : NetworkFunction(std::move(name)), rules_(std::move(rules)) {
  for (std::uint32_t r = 0; r < rules_.size(); ++r) {
    if (rules_[r].contents.size() > kMaxSnortContents) {
      throw std::invalid_argument(
          "SnortIds: rule sid " + std::to_string(rules_[r].sid) +
          " has more than " + std::to_string(kMaxSnortContents) +
          " content options");
    }
    for (std::uint32_t c = 0; c < rules_[r].contents.size(); ++c) {
      const ContentMatch& content = rules_[r].contents[c];
      matcher_.add_pattern(content.pattern,
                           static_cast<std::uint32_t>(pattern_owner_.size()),
                           content.nocase);
      pattern_owner_.emplace_back(r, c);
    }
  }
  matcher_.build();
  matched_generation_.assign(rules_.size(), 0);
  matched_bits_.assign(rules_.size(), 0);
}

SnortIds::FlowState& SnortIds::flow_state(const core::HashedTuple& flow) {
  const auto [state, inserted] = flows_.try_emplace(flow.tuple, flow.hash);
  if (inserted) {
    // Initial packet of the flow: assign the candidate rule set by linear
    // header matching — the per-flow "rule matching function" of
    // Observation 1. This is the initialization cost Fig. 4 shows
    // dominating initial packets.
    for (std::uint32_t r = 0; r < rules_.size(); ++r) {
      if (rules_[r].header_matches(flow.tuple)) {
        state->candidate_rules.push_back(r);
      }
    }
  }
  return *state;
}

void SnortIds::inspect(const net::FiveTuple& tuple, const FlowState& state,
                       net::Packet& packet,
                       const net::ParsedPacket& parsed) {
  if (state.candidate_rules.empty()) return;
  const auto payload = net::payload_view(packet, parsed);

  // One automaton pass over the payload; mark which contents of which
  // rules occurred at positions satisfying their offset/depth constraints.
  ++generation_;
  matcher_.match(payload, [this](std::uint32_t pattern_id, std::size_t end) {
    const auto [rule, content] = pattern_owner_[pattern_id];
    if (!rules_[rule].contents[content].position_ok(end)) return;
    if (matched_generation_[rule] != generation_) {
      matched_generation_[rule] = generation_;
      matched_bits_[rule] = 0;
    }
    matched_bits_[rule] |= 1ULL << content;
  });

  // Evaluate candidates; pass-first order (a firing pass rule suppresses
  // alert/log outcomes for this packet).
  bool passed = false;
  fired_.clear();
  for (const std::uint32_t r : state.candidate_rules) {
    if (matched_generation_[r] != generation_) continue;
    const SnortRule& rule = rules_[r];
    const std::uint64_t all =
        rule.contents.size() >= 64
            ? ~0ULL
            : (1ULL << rule.contents.size()) - 1;
    if ((matched_bits_[r] & all) != all) continue;
    if (rule.action == SnortAction::kPass) {
      passed = true;
      break;
    }
    fired_.push_back(r);
  }
  if (passed) {
    ++passes_;
    return;
  }
  for (const std::uint32_t r : fired_) {
    const SnortRule& rule = rules_[r];
    log_.push_back({tuple, rule.sid, rule.action});
    if (rule.action == SnortAction::kAlert) {
      ++alerts_;
    } else {
      ++logs_;
    }
  }
}

void SnortIds::process(net::Packet& packet, core::SpeedyBoxContext* ctx) {
  count_packet();
  const auto parsed = parse_and_check(packet);  // R1: per-NF parse+validate
  if (!parsed) return;
  const auto flow =
      core::HashedTuple::of(net::extract_five_tuple(packet, *parsed));
  const net::FiveTuple tuple = flow.tuple;
  FlowState& state = flow_state(flow);

  inspect(tuple, state, packet, *parsed);

  if (ctx != nullptr) {
    // Snort never modifies packets: forward header action (§VI-C), and the
    // inspection wrapped as a READ-class state function. Per Figure 2 the
    // handler is recorded together with its args — here the flow's resolved
    // rule-group state — so the fast path skips the per-packet flow-table
    // lookup (slab records are pointer-stable across resizes; the teardown
    // hook that frees the state runs only when the rule itself is erased).
    ctx->add_header_action(core::HeaderAction::forward());
    const FlowState* flow_args = &state;
    core::localmat_add_SF(
        ctx,
        [this, tuple, flow_args](net::Packet& pkt,
                                 const net::ParsedPacket& p) {
          inspect(tuple, *flow_args, pkt, p);
        },
        core::PayloadAccess::kRead, inspect_name_, flow_args);
    ctx->on_teardown([this, tuple]() { flows_.erase(tuple); });
  }

  // Connection close frees the flow state inline on the unrecorded path;
  // on the recorded path the teardown hook does it (after the rule whose
  // handler references this state has been destroyed).
  if (ctx == nullptr && parsed->has_fin_or_rst()) {
    flows_.erase(tuple, flow.hash);
  }
}

void SnortIds::process_batch(net::PacketBatch& batch,
                             std::span<core::SpeedyBoxContext* const> ctxs) {
  // Pre-pass: parse + validate and prefetch each payload — the automaton
  // walks every payload byte, so streaming the later packets' payloads in
  // while the earlier ones are inspected hides their memory latency.
  struct Live {
    std::size_t slot;
    net::ParsedPacket parsed;
    core::HashedTuple flow;
  };
  std::vector<Live> live;
  live.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch.valid(i)) continue;
    core::SpeedyBoxContext* ctx = ctxs.empty() ? nullptr : ctxs[i];
    if (ctx != nullptr) {
      // Recording stays scalar (DESIGN.md §8).
      process(batch.packet(i), ctx);
      if (batch.packet(i).dropped()) batch.mask(i);
      continue;
    }
    net::Packet& packet = batch.packet(i);
    count_packet();
    const auto parsed = parse_and_check(packet);
    if (!parsed) {
      batch.mask(i);
      continue;
    }
    const auto payload = net::payload_view(packet, *parsed);
    for (std::size_t off = 0; off < payload.size();
         off += util::kCacheLineSize) {
      util::prefetch_read(payload.data() + off);
    }
    const auto flow =
        core::HashedTuple::of(net::extract_five_tuple(packet, *parsed));
    flows_.prefetch(flow.hash);
    live.push_back({i, *parsed, flow});
  }
  // Stateful pass in slot order: candidate-set assignment (first packet of
  // a flow), inspection, and the inline FIN/RST flow-state erase interleave
  // exactly as the scalar loop would.
  for (const Live& entry : live) {
    FlowState& state = flow_state(entry.flow);
    inspect(entry.flow.tuple, state, batch.packet(entry.slot), entry.parsed);
    if (entry.parsed.has_fin_or_rst()) {
      flows_.erase(entry.flow.tuple, entry.flow.hash);
    }
  }
}

void SnortIds::on_flow_teardown(const net::FiveTuple& tuple) {
  flows_.erase(tuple);
}

std::optional<std::vector<std::uint8_t>> SnortIds::export_flow_state(
    const net::FiveTuple& tuple) {
  return flows_.export_state(tuple);
}

void SnortIds::import_flow_state(const net::FiveTuple& tuple,
                                 std::span<const std::uint8_t> bytes,
                                 core::SpeedyBoxContext* ctx) {
  // The traits restore handles the wire format; the rule-range check needs
  // the configured rule set, so it stays here. A bad payload must not leave
  // a half-trusted candidate group behind.
  FlowState& stored = flows_.import_state(tuple, bytes);
  for (const std::uint32_t rule : stored.candidate_rules) {
    if (rule >= rules_.size()) {
      flows_.erase(tuple);
      throw std::invalid_argument("SnortIds: imported rule index out of range");
    }
  }
  if (ctx != nullptr) {
    // Re-record what process() recorded on the initial packet, binding the
    // destination's own flow-state node.
    ctx->add_header_action(core::HeaderAction::forward());
    const FlowState* flow_args = &stored;
    core::localmat_add_SF(
        ctx,
        [this, tuple, flow_args](net::Packet& pkt,
                                 const net::ParsedPacket& p) {
          inspect(tuple, *flow_args, pkt, p);
        },
        core::PayloadAccess::kRead, inspect_name_, flow_args);
    ctx->on_teardown([this, tuple]() { flows_.erase(tuple); });
  }
}

}  // namespace speedybox::nf
