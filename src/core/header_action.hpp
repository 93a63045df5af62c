// Header actions (§IV-A1) and the consolidation algebra (§V-B).
//
// SpeedyBox standardizes five header actions — Forward, Drop, Modify, Encap,
// Decap — and consolidates the ordered list an initial packet accumulates
// across the chain into a single equivalent action:
//
//   * Drop dominates: one drop anywhere makes the flow's consolidated
//     action a drop, enabling early drop at the head of the chain (R2).
//   * Encap/Decap are simulated on a header stack; an encap immediately
//     undone by a matching decap cancels out.
//   * Modifies merge: same field — the later write wins; different fields —
//     combined into one pass. The paper expresses the combination as
//     P0 ⊕ [(P0⊕P1) | (P0⊕P2)]; we compile the merged field writes into a
//     byte-level mask/value patch (BytePatch) applied in a single sweep,
//     which is exactly that XOR/OR composition.
//   * Dependent fields (checksums) are fixed once, at the end (§V-B).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/fields.hpp"
#include "net/packet.hpp"

namespace speedybox::core {

enum class HeaderActionType : std::uint8_t {
  kForward,
  kDrop,
  kModify,
  kEncap,
  kDecap,
};

std::string_view header_action_type_name(HeaderActionType type) noexcept;

/// Parameters of an Encap action (and the kind tag a Decap matches on).
struct EncapSpec {
  net::EncapKind kind = net::EncapKind::kAh;
  std::uint32_t spi = 0;              // AH only
  net::Ipv4Addr tunnel_src;           // IPIP only
  net::Ipv4Addr tunnel_dst;           // IPIP only

  friend bool operator==(const EncapSpec&, const EncapSpec&) = default;
};

/// One header action as recorded by an NF into the flow's record. A Modify
/// carries exactly one field write (an NF records several Modifies to
/// rewrite several fields, as in Fig. 1's modify(DPort)).
struct HeaderAction {
  HeaderActionType type = HeaderActionType::kForward;
  net::HeaderField field = net::HeaderField::kSrcIp;  // kModify
  std::uint32_t value = 0;                            // kModify
  EncapSpec encap;                                    // kEncap / kDecap

  static HeaderAction forward() noexcept { return {}; }
  static HeaderAction drop() noexcept {
    HeaderAction a;
    a.type = HeaderActionType::kDrop;
    return a;
  }
  static HeaderAction modify(net::HeaderField field,
                             std::uint32_t value) noexcept {
    HeaderAction a;
    a.type = HeaderActionType::kModify;
    a.field = field;
    a.value = value;
    return a;
  }
  static HeaderAction encap_ah(std::uint32_t spi) noexcept {
    HeaderAction a;
    a.type = HeaderActionType::kEncap;
    a.encap.kind = net::EncapKind::kAh;
    a.encap.spi = spi;
    return a;
  }
  static HeaderAction encap_ipip(net::Ipv4Addr src,
                                 net::Ipv4Addr dst) noexcept {
    HeaderAction a;
    a.type = HeaderActionType::kEncap;
    a.encap.kind = net::EncapKind::kIpIp;
    a.encap.tunnel_src = src;
    a.encap.tunnel_dst = dst;
    return a;
  }
  static HeaderAction decap(net::EncapKind kind) noexcept {
    HeaderAction a;
    a.type = HeaderActionType::kDecap;
    a.encap.kind = kind;
    return a;
  }

  friend bool operator==(const HeaderAction&, const HeaderAction&) = default;

  std::string to_string() const;
};

/// The result of consolidating an ordered header-action list.
struct ConsolidatedAction {
  bool drop = false;

  /// Residual per-field writes (last-writer-wins), indexed by HeaderField.
  std::array<std::optional<std::uint32_t>, net::kHeaderFieldCount>
      field_writes{};

  /// Residual decaps of headers the packet arrived with (applied first,
  /// outermost-in order), then residual encaps (applied in push order).
  std::vector<net::EncapKind> leading_decaps;
  std::vector<EncapSpec> trailing_encaps;

  bool has_field_writes() const noexcept {
    for (const auto& w : field_writes) {
      if (w) return true;
    }
    return false;
  }
  bool is_pure_forward() const noexcept {
    return !drop && !has_field_writes() && leading_decaps.empty() &&
           trailing_encaps.empty();
  }

  std::string to_string() const;
};

/// §V-B consolidation: ordered action list -> one equivalent action.
ConsolidatedAction consolidate(std::span<const HeaderAction> actions);

/// Byte-level compiled form of the field writes: one masked write over a
/// window of the header bytes. Offsets depend on the packet's parse shape
/// (inner L3/L4 offsets), which is constant across a flow's packets; the
/// Global MAT caches the compiled patch per rule and recompiles if the
/// shape ever differs.
class BytePatch {
 public:
  BytePatch() = default;

  /// Compile the field writes of `action` against the offsets in `parsed`.
  static BytePatch compile(const ConsolidatedAction& action,
                           const net::ParsedPacket& parsed);

  /// True if this patch was compiled for the same parse shape.
  bool matches_shape(const net::ParsedPacket& parsed) const noexcept {
    return inner_l3_ == parsed.inner_l3_offset && l4_ == parsed.l4_offset;
  }

  bool empty() const noexcept { return length_ == 0; }

  /// Apply: packet[base+i] = (packet[base+i] & ~mask[i]) | value[i].
  void apply(net::Packet& packet) const noexcept;

 private:
  static constexpr std::size_t kMaxWindow = 64;

  // Header offsets, all well inside the first 64 KiB of a frame: 16 bits
  // keep the patch, and so the flow record, small.
  std::uint16_t inner_l3_ = 0;
  std::uint16_t l4_ = 0;
  std::uint16_t base_offset_ = 0;
  std::uint16_t length_ = 0;
  std::array<std::uint8_t, kMaxWindow> mask_{};
  std::array<std::uint8_t, kMaxWindow> value_{};
};

/// Apply a single header action the way a baseline NF does: field write plus
/// immediate incremental checksum fix-up. This is the reference semantics
/// the property tests compare consolidation against, and the helper the
/// baseline NF implementations use on the original path.
void apply_action_baseline(const HeaderAction& action, net::Packet& packet);

/// Apply a consolidated action on the fast path: leading decaps, one byte
/// patch, trailing encaps, then a single checksum fix-up. Marks the packet
/// dropped instead when action.drop is set.
void apply_consolidated(const ConsolidatedAction& action, BytePatch& patch,
                        net::Packet& packet);

}  // namespace speedybox::core
