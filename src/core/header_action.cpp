#include "core/header_action.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "net/byte_order.hpp"
#include "net/checksum.hpp"

namespace speedybox::core {

std::string_view header_action_type_name(HeaderActionType type) noexcept {
  switch (type) {
    case HeaderActionType::kForward: return "forward";
    case HeaderActionType::kDrop: return "drop";
    case HeaderActionType::kModify: return "modify";
    case HeaderActionType::kEncap: return "encap";
    case HeaderActionType::kDecap: return "decap";
  }
  return "?";
}

std::string HeaderAction::to_string() const {
  std::string out{header_action_type_name(type)};
  switch (type) {
    case HeaderActionType::kModify:
      out += "(";
      out += net::field_name(field);
      out += "=" + std::to_string(value) + ")";
      break;
    case HeaderActionType::kEncap:
    case HeaderActionType::kDecap:
      out += encap.kind == net::EncapKind::kAh ? "(ah)" : "(ipip)";
      break;
    default:
      break;
  }
  return out;
}

std::string ConsolidatedAction::to_string() const {
  if (drop) return "drop";
  std::string out;
  for (const auto kind : leading_decaps) {
    out += kind == net::EncapKind::kAh ? "decap(ah);" : "decap(ipip);";
  }
  for (std::size_t i = 0; i < field_writes.size(); ++i) {
    if (field_writes[i]) {
      out += "modify(";
      out += net::field_name(static_cast<net::HeaderField>(i));
      out += "=" + std::to_string(*field_writes[i]) + ");";
    }
  }
  for (const auto& spec : trailing_encaps) {
    out += spec.kind == net::EncapKind::kAh ? "encap(ah);" : "encap(ipip);";
  }
  if (out.empty()) return "forward";
  return out;
}

ConsolidatedAction consolidate(std::span<const HeaderAction> actions) {
  ConsolidatedAction out;
  for (const HeaderAction& action : actions) {
    switch (action.type) {
      case HeaderActionType::kForward:
        break;
      case HeaderActionType::kDrop:
        // Drop dominates the entire list (§V-B): one drop anywhere means the
        // packet never needs any other processing.
        out.drop = true;
        out.field_writes = {};
        out.leading_decaps.clear();
        out.trailing_encaps.clear();
        return out;
      case HeaderActionType::kModify:
        // Last writer wins per field; distinct fields accumulate into one
        // combined write (the XOR/OR merge, compiled by BytePatch).
        out.field_writes[static_cast<std::size_t>(action.field)] =
            action.value;
        break;
      case HeaderActionType::kEncap:
        out.trailing_encaps.push_back(action.encap);
        break;
      case HeaderActionType::kDecap:
        // Stack simulation: a decap cancels the nearest pending encap of the
        // same kind; with no pending encap it strips a header the packet
        // arrived with, so it runs before the field writes.
        if (!out.trailing_encaps.empty() &&
            out.trailing_encaps.back().kind == action.encap.kind) {
          out.trailing_encaps.pop_back();
        } else {
          out.leading_decaps.push_back(action.encap.kind);
        }
        break;
    }
  }
  return out;
}

BytePatch BytePatch::compile(const ConsolidatedAction& action,
                             const net::ParsedPacket& parsed) {
  BytePatch patch;
  patch.inner_l3_ = static_cast<std::uint16_t>(parsed.inner_l3_offset);
  patch.l4_ = static_cast<std::uint16_t>(parsed.l4_offset);

  std::size_t lo = SIZE_MAX;
  std::size_t hi = 0;
  struct Write {
    std::size_t offset;
    std::size_t width;
    std::uint32_t value;
  };
  // At most one write per field, so a fixed array holds them all.
  std::array<Write, net::kHeaderFieldCount> writes;
  std::size_t count = 0;
  for (std::size_t i = 0; i < action.field_writes.size(); ++i) {
    if (!action.field_writes[i]) continue;
    const auto ref =
        net::field_ref(parsed, static_cast<net::HeaderField>(i));
    if (!ref) continue;
    writes[count++] = {ref->offset, ref->width, *action.field_writes[i]};
    lo = std::min(lo, ref->offset);
    hi = std::max(hi, ref->offset + ref->width);
  }
  if (count == 0) return patch;

  patch.base_offset_ = static_cast<std::uint16_t>(lo);
  patch.length_ = static_cast<std::uint16_t>(std::min(hi - lo, kMaxWindow));
  for (const Write& w : std::span{writes}.first(count)) {
    for (std::size_t b = 0; b < w.width; ++b) {
      const std::size_t rel = w.offset + b - lo;
      if (rel >= patch.length_) continue;
      patch.mask_[rel] = 0xFF;
      patch.value_[rel] = static_cast<std::uint8_t>(
          w.value >> (8 * (w.width - 1 - b)));
    }
  }
  return patch;
}

void BytePatch::apply(net::Packet& packet) const noexcept {
  auto bytes = packet.bytes();
  if (base_offset_ + length_ > bytes.size()) return;
  std::uint8_t* base = bytes.data() + base_offset_;
  for (std::size_t i = 0; i < length_; ++i) {
    base[i] = static_cast<std::uint8_t>((base[i] & ~mask_[i]) | value_[i]);
  }
}

void apply_action_baseline(const HeaderAction& action, net::Packet& packet) {
  switch (action.type) {
    case HeaderActionType::kForward:
      return;
    case HeaderActionType::kDrop:
      packet.mark_dropped();
      return;
    case HeaderActionType::kModify: {
      const auto parsed = net::parse_packet(packet);
      if (!parsed) return;
      net::set_field(packet, *parsed, action.field, action.value);
      // Baseline NFs keep the packet wire-valid after every rewrite — the
      // per-NF checksum cost the fast path amortizes to one fix-up.
      net::write_ipv4_checksum(packet, parsed->inner_l3_offset);
      net::write_l4_checksum(packet, *parsed);
      return;
    }
    case HeaderActionType::kEncap:
      if (action.encap.kind == net::EncapKind::kAh) {
        net::encap_ah(packet, action.encap.spi);
      } else {
        net::encap_ipip(packet, action.encap.tunnel_src,
                        action.encap.tunnel_dst);
      }
      return;
    case HeaderActionType::kDecap:
      if (action.encap.kind == net::EncapKind::kAh) {
        net::decap_ah(packet);
      } else {
        net::decap_ipip(packet);
      }
      return;
  }
}

void apply_consolidated(const ConsolidatedAction& action, BytePatch& patch,
                        net::Packet& packet) {
  if (action.drop) {
    packet.mark_dropped();
    return;
  }
  for (const auto kind : action.leading_decaps) {
    if (kind == net::EncapKind::kAh) {
      net::decap_ah(packet);
    } else {
      net::decap_ipip(packet);
    }
  }

  const bool structural =
      !action.leading_decaps.empty() || !action.trailing_encaps.empty();
  bool need_checksum_fix = structural;

  if (action.has_field_writes()) {
    // The compiled patch is valid as long as the parse shape (header
    // offsets) matches; for packets of one flow it almost always does.
    if (patch.empty() || structural) {
      const auto parsed = net::parse_packet(packet);
      if (!parsed) return;
      if (!patch.matches_shape(*parsed)) {
        patch = BytePatch::compile(action, *parsed);
      }
    }
    patch.apply(packet);
    need_checksum_fix = true;
  }

  for (const auto& spec : action.trailing_encaps) {
    if (spec.kind == net::EncapKind::kAh) {
      net::encap_ah(packet, spec.spi);
    } else {
      net::encap_ipip(packet, spec.tunnel_src, spec.tunnel_dst);
    }
  }

  if (need_checksum_fix) {
    const auto parsed = net::parse_packet(packet);
    if (parsed) net::fix_all_checksums(packet, *parsed);
  }
}

}  // namespace speedybox::core
