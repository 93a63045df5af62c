#include "nf/mazu_nat.hpp"

#include <stdexcept>

#include "nf/flow_state.hpp"

namespace speedybox::nf {

MazuNat::MazuNat(MazuNatConfig config, std::string name)
    : NetworkFunction(std::move(name)), config_(config) {
  if (config_.port_lo > config_.port_hi) {
    throw std::invalid_argument("MazuNat: empty port range");
  }
}

bool MazuNat::is_outbound(const net::FiveTuple& tuple) const noexcept {
  const std::uint8_t len = config_.internal_prefix_len;
  if (len == 0) return true;
  const std::uint32_t mask = len >= 32 ? ~0u : ~((1u << (32 - len)) - 1);
  return (tuple.src_ip.value & mask) == (config_.internal_prefix.value & mask);
}

std::uint16_t MazuNat::allocate_port(const core::HashedTuple& flow) {
  const std::uint32_t range =
      static_cast<std::uint32_t>(config_.port_hi - config_.port_lo) + 1;
  // The per-packet flow hash doubles as the allocation start point, so
  // allocation stays a deterministic function of the tuple.
  const std::uint32_t start =
      static_cast<std::uint32_t>(flow.hash.value % range);
  for (std::uint32_t probe = 0; probe < range; ++probe) {
    const std::uint16_t port = static_cast<std::uint16_t>(
        config_.port_lo + (start + probe) % range);
    if (!reverse_.contains(port)) return port;
  }
  throw std::runtime_error("MazuNat: port pool exhausted");
}

void MazuNat::release_mapping(const net::FiveTuple& tuple) {
  const std::uint16_t* port = mappings_.find(tuple);
  if (port == nullptr) return;
  reverse_.erase(*port);
  mappings_.erase(tuple);
}

std::vector<core::HeaderAction> MazuNat::outbound_actions(
    std::uint16_t ext_port) const {
  return {
      core::HeaderAction::modify(net::HeaderField::kSrcIp,
                                 config_.external_ip.value),
      core::HeaderAction::modify(net::HeaderField::kSrcPort, ext_port),
  };
}

void MazuNat::process(net::Packet& packet, core::SpeedyBoxContext* ctx) {
  count_packet();
  const auto parsed = parse_and_check(packet);  // R1: per-NF parse+validate
  if (!parsed) return;
  const auto flow =
      core::HashedTuple::of(net::extract_five_tuple(packet, *parsed));
  const net::FiveTuple tuple = flow.tuple;

  if (is_outbound(tuple)) {
    std::uint16_t ext_port;
    if (const std::uint16_t* mapped = mappings_.find(tuple, flow.hash)) {
      ext_port = *mapped;
    } else {
      ext_port = allocate_port(flow);
      mappings_.try_emplace(tuple, flow.hash, ext_port);
      reverse_.try_emplace(ext_port, tuple);
    }
    ++translations_;
    const std::vector<core::HeaderAction> actions = outbound_actions(ext_port);
    for (const auto& action : actions) {
      core::apply_action_baseline(action, packet);
    }
    if (ctx != nullptr) {
      for (const auto& action : actions) ctx->add_header_action(action);
      ctx->on_teardown([this, tuple]() { release_mapping(tuple); });
    }
    if (parsed->has_fin_or_rst()) release_mapping(tuple);
    return;
  }

  // Inbound: reverse-translate packets addressed to the external IP.
  if (tuple.dst_ip == config_.external_ip) {
    const net::FiveTuple* found = reverse_.find(tuple.dst_port);
    if (found == nullptr) {
      packet.mark_dropped();  // no mapping: unsolicited inbound
      return;
    }
    const net::FiveTuple& orig = *found;
    const std::vector<core::HeaderAction> actions = {
        core::HeaderAction::modify(net::HeaderField::kDstIp,
                                   orig.src_ip.value),
        core::HeaderAction::modify(net::HeaderField::kDstPort, orig.src_port),
    };
    ++translations_;
    for (const auto& action : actions) {
      core::apply_action_baseline(action, packet);
    }
    if (ctx != nullptr) {
      for (const auto& action : actions) ctx->add_header_action(action);
    }
  }
  // Neither outbound nor addressed to us: forward untouched.
}

std::optional<std::uint16_t> MazuNat::mapping_of(
    const net::FiveTuple& tuple) const {
  const std::uint16_t* port = mappings_.find(tuple);
  if (port == nullptr) return std::nullopt;
  return *port;
}

std::optional<net::FiveTuple> MazuNat::reverse_mapping_of(
    std::uint16_t ext_port) const {
  const net::FiveTuple* orig = reverse_.find(ext_port);
  if (orig == nullptr) return std::nullopt;
  return *orig;
}

void MazuNat::on_flow_teardown(const net::FiveTuple& tuple) {
  release_mapping(tuple);
}

namespace {
constexpr std::uint8_t kNatOutbound = 1;
constexpr std::uint8_t kNatInbound = 2;
}  // namespace

std::optional<std::vector<std::uint8_t>> MazuNat::export_flow_state(
    const net::FiveTuple& tuple) {
  if (const std::uint16_t* port = mappings_.find(tuple)) {
    FlowStateWriter writer;
    writer.u8(kNatOutbound);
    writer.u16(*port);
    return writer.take();
  }
  if (tuple.dst_ip == config_.external_ip) {
    if (const net::FiveTuple* orig = reverse_.find(tuple.dst_port)) {
      FlowStateWriter writer;
      writer.u8(kNatInbound);
      writer.tuple(*orig);
      return writer.take();
    }
  }
  return std::nullopt;  // untracked: the NAT forwards this flow untouched
}

void MazuNat::import_flow_state(const net::FiveTuple& tuple,
                                std::span<const std::uint8_t> bytes,
                                core::SpeedyBoxContext* ctx) {
  FlowStateReader reader{bytes};
  const std::uint8_t kind = reader.u8();
  if (kind == kNatOutbound) {
    const std::uint16_t ext_port = reader.u16();
    mappings_.try_emplace(tuple, ext_port);
    reverse_.try_emplace(ext_port, tuple);
    if (ctx != nullptr) {
      for (const auto& action : outbound_actions(ext_port)) {
        ctx->add_header_action(action);
      }
      ctx->on_teardown([this, tuple]() { release_mapping(tuple); });
    }
    return;
  }
  if (kind == kNatInbound) {
    // Both directions share a shard (symmetric-hash affinity), so the
    // outbound sibling migrates alongside; emplace keeps whichever
    // direction imported first authoritative.
    const net::FiveTuple orig = reader.tuple();
    mappings_.try_emplace(orig, tuple.dst_port);
    reverse_.try_emplace(tuple.dst_port, orig);
    if (ctx != nullptr) {
      ctx->add_header_action(core::HeaderAction::modify(
          net::HeaderField::kDstIp, orig.src_ip.value));
      ctx->add_header_action(core::HeaderAction::modify(
          net::HeaderField::kDstPort, orig.src_port));
    }
    return;
  }
  throw std::invalid_argument("MazuNat: unknown flow-state kind");
}

}  // namespace speedybox::nf
