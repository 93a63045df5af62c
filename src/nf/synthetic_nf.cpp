#include "nf/synthetic_nf.hpp"

#include "util/hash.hpp"

namespace speedybox::nf {

SyntheticNf::SyntheticNf(SyntheticNfConfig config, std::string name)
    : NetworkFunction(std::move(name)), config_(config) {}

void SyntheticNf::run_state_function(net::Packet& packet,
                                     const net::ParsedPacket& parsed) {
  switch (config_.access) {
    case core::PayloadAccess::kRead: {
      // Inspection-like work: hash the payload repeatedly.
      const auto payload = net::payload_view(
          static_cast<const net::Packet&>(packet), parsed);
      for (std::uint32_t i = 0; i < config_.work_iterations; ++i) {
        digest_ = util::hash_combine(digest_, util::fnv1a(payload));
      }
      break;
    }
    case core::PayloadAccess::kWrite: {
      // Deterministic payload transform (e.g. scrubbing/normalization).
      auto payload = net::payload_view(packet, parsed);
      for (std::uint32_t i = 0; i < config_.work_iterations; ++i) {
        std::uint8_t rolling = static_cast<std::uint8_t>(i + 1);
        for (std::uint8_t& byte : payload) {
          byte = static_cast<std::uint8_t>(byte ^ rolling);
          rolling = static_cast<std::uint8_t>(rolling * 31 + 7);
        }
      }
      digest_ = util::hash_combine(digest_, util::fnv1a(payload));
      break;
    }
    case core::PayloadAccess::kIgnore: {
      // Internal-state-only work.
      std::uint64_t acc = digest_ | 1;
      for (std::uint32_t i = 0; i < config_.work_iterations * 8; ++i) {
        acc = util::mix64(acc + i);
      }
      digest_ = acc;
      break;
    }
  }
}

void SyntheticNf::process(net::Packet& packet, core::SpeedyBoxContext* ctx) {
  count_packet();
  const auto parsed = parse_and_check(packet);  // R1: per-NF parse+validate
  if (!parsed) return;

  if (config_.header_action) {
    core::apply_action_baseline(*config_.header_action, packet);
    if (packet.dropped()) {
      if (ctx != nullptr) ctx->add_header_action(*config_.header_action);
      return;
    }
  }
  run_state_function(packet, *parsed);

  if (ctx != nullptr) {
    ctx->add_header_action(config_.header_action
                               ? *config_.header_action
                               : core::HeaderAction::forward());
    core::localmat_add_SF(
        ctx,
        [this](net::Packet& pkt, const net::ParsedPacket& p) {
          run_state_function(pkt, p);
        },
        config_.access, work_name_);
  }
}

}  // namespace speedybox::nf
