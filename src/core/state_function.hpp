// State functions (§IV-A2): the recordable form of an NF's stateful work —
// payload inspection, counter updates, connection tracking. Each state
// function is a callable handler plus a payload-access class
// (WRITE/READ/IGNORE) that drives the Table-I parallelism analysis.
//
// A handler is Figure 2's {function handler, args} pair held in one
// util::InlineFunction: a function pointer plus the NF state it captures,
// stored inline (at most 32 bytes, trivially copyable), so recording one
// allocates nothing. Invoking the handler on the fast path is exactly the
// paper's "executes the state functions by invoking the function handlers
// as recorded". The recorded args name that state's address for the
// batch's warm pass.
#pragma once

#include <cstdint>
#include <string_view>

#include "net/packet.hpp"
#include "util/inline_function.hpp"

namespace speedybox::core {

/// Payload access classes, ordered by priority (§V-C2:
/// WRITE > READ > IGNORE determines a batch's class).
enum class PayloadAccess : std::uint8_t { kIgnore = 0, kRead = 1, kWrite = 2 };

std::string_view payload_access_name(PayloadAccess access) noexcept;

using StateFunctionHandler =
    util::InlineFunction<void(net::Packet&, const net::ParsedPacket&)>;

struct StateFunction {
  StateFunctionHandler handler;
  PayloadAccess access = PayloadAccess::kIgnore;
  /// Diagnostics / equivalence audits. A view: the NF keeps the string,
  /// built once per instance, for as long as its flows are recorded.
  std::string_view name;
  /// Figure 2's `args* arg_list`: the per-flow state the handler reads,
  /// which the fast path prefetches before running it. A hint only: the
  /// handler reaches its state through its own captures, so a null or
  /// wrong value changes no output.
  const void* args = nullptr;
};

/// All state functions one NF recorded for a flow (§V-C1: "we define all
/// state functions of a rule as a state function batch"), as the index
/// range [begin, end) of the consolidated rule's chain-order handler
/// array. Functions within a batch always execute in recorded order.
struct StateFunctionBatch {
  std::uint32_t nf_index = 0;  // position of the owning NF in the chain
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  PayloadAccess access = PayloadAccess::kIgnore;  // highest of its members

  bool empty() const noexcept { return begin == end; }
};

inline std::string_view payload_access_name(PayloadAccess access) noexcept {
  switch (access) {
    case PayloadAccess::kIgnore: return "ignore";
    case PayloadAccess::kRead: return "read";
    case PayloadAccess::kWrite: return "write";
  }
  return "?";
}

}  // namespace speedybox::core
