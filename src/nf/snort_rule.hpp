// Snort rule model + parser.
//
// We support the core of Snort's rule language used by content rules:
//
//   <action> <proto> <src> <sport> -> <dst> <dport>
//       (content:"..."; [nocase;] [offset:N;] [depth:N;]
//        [content:"..."; ...] msg:"..."; sid:N;)
//
// where action ∈ {pass, alert, log} (the three inspection outcomes the
// paper's §VII-C equivalence test covers), proto ∈ {tcp, udp, ip}, and
// src/dst/sport/dport are either `any` or a literal value. Every content
// match must succeed for the rule to fire. Content modifiers follow Snort
// semantics: `nocase` makes the match case-insensitive; `offset`/`depth`
// constrain where in the payload the content may *start* (depth counts
// bytes searched from the offset).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/five_tuple.hpp"

namespace speedybox::nf {

enum class SnortAction : std::uint8_t { kPass, kAlert, kLog };

/// Most content options one rule may carry: SnortIds tracks which of a
/// rule's contents matched in one 64-bit mask.
inline constexpr std::size_t kMaxSnortContents = 64;

std::string_view snort_action_name(SnortAction action) noexcept;

/// One content option with its modifiers.
struct ContentMatch {
  std::string pattern;
  bool nocase = false;
  /// Earliest payload byte the match may start at.
  std::size_t offset = 0;
  /// Number of bytes (from `offset`) within which the match must start;
  /// nullopt = unbounded.
  std::optional<std::size_t> depth;

  /// Whether a match ending at payload position `end` (exclusive) with this
  /// pattern's length satisfies the positional constraints.
  bool position_ok(std::size_t end) const noexcept {
    const std::size_t start = end - pattern.size();
    if (start < offset) return false;
    if (depth && start >= offset + *depth) return false;
    return true;
  }

  friend bool operator==(const ContentMatch&, const ContentMatch&) = default;
};

struct SnortRule {
  std::uint32_t sid = 0;
  SnortAction action = SnortAction::kAlert;
  std::optional<net::IpProto> proto;          // nullopt = ip (any)
  std::optional<net::Ipv4Addr> src_ip;        // nullopt = any
  std::optional<net::Ipv4Addr> dst_ip;        // nullopt = any
  std::optional<std::uint16_t> src_port;      // nullopt = any
  std::optional<std::uint16_t> dst_port;      // nullopt = any
  std::vector<ContentMatch> contents;         // all must match
  std::string msg;

  /// Header-level predicate (ports/IPs/proto), payload not considered.
  bool header_matches(const net::FiveTuple& tuple) const noexcept;
};

/// Parse one rule line. Returns nullopt (and sets *error when non-null) on
/// malformed input.
std::optional<SnortRule> parse_snort_rule(std::string_view line,
                                          std::string* error = nullptr);

/// Parse a rule file body: one rule per line, '#' comments and blank lines
/// skipped. Throws std::invalid_argument on the first malformed rule.
std::vector<SnortRule> parse_snort_rules(std::string_view text);

/// Parse dotted-quad "a.b.c.d"; nullopt on malformed input.
std::optional<net::Ipv4Addr> parse_ipv4(std::string_view text) noexcept;

/// The default rule set used by examples/benchmarks and the NF registry's
/// `snort` factory: pass, alert and log rules covering all three Snort
/// inspection outcomes (§VII-C-1). trace::default_snort_rules() forwards
/// here so the workload synthesizer plants the same contents.
std::vector<SnortRule> default_snort_rules();

}  // namespace speedybox::nf
