// The Packet Classifier (§III, §VI-B): front door of the SpeedyBox data
// path. For every arriving packet it
//
//   1. parses the header chain once (the fast path never re-parses),
//   2. maps the five-tuple to a 20-bit FID and attaches it as descriptor
//      metadata — the FID stays consistent along the chain even if an NF
//      rewrites the five-tuple,
//   3. dispatches: unseen flow -> initial path (original chain, recording);
//      known flow -> subsequent path (Global MAT),
//   4. tracks flow state: a FIN or RST marks the flow for teardown so the
//      flow's record in the Global MAT can be freed.
//
// A flow's FID is the record index of its entry in the tuple table, read
// from the probed slot (core/flow_table.hpp): the slot the batch pre-pass
// already prefetched, so classifying a known flow waits on no further load.
// FIDs are dense: a new flow takes the most recently freed FID, or the next
// unused one, and the Global MAT keeps the flow's record at that slot. At
// most 2^20 flows are live at once; a new flow beyond that is refused
// (classify returns no classification) until one closes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/flow_table.hpp"
#include "net/packet.hpp"

namespace speedybox::core {

class PacketClassifier {
 public:
  enum class Path : std::uint8_t { kInitial, kSubsequent };

  struct Classification {
    Path path = Path::kInitial;
    std::uint32_t fid = net::kInvalidFid;
    bool teardown = false;  // FIN/RST seen on this packet
    net::ParsedPacket parsed;
  };

  /// Parse + FID assignment + dispatch decision. Attaches FID and the
  /// initial/subsequent flag to the packet metadata. Returns nullopt for
  /// malformed packets and for a new flow while every FID is live (the
  /// caller drops them).
  std::optional<Classification> classify(net::Packet& packet);

  /// The lookup/FID half on a packet the caller already parsed and
  /// checksum-validated (`parsed`) and whose five-tuple it already hashed
  /// (`flow`): the batch's pre-pass does both once per packet, and
  /// classify(packet) forwards here.
  std::optional<Classification> classify(net::Packet& packet,
                                         const HashedTuple& flow,
                                         const net::ParsedPacket& parsed);

  /// Warm the tuple table's control and slot lines `hash`'s lookup starts
  /// at: the batch pre-pass hint (DESIGN.md §8).
  void prefetch(FlowHash hash) const noexcept { by_tuple_.prefetch(hash); }

  /// Side-effect-free lookup: the FID of a known flow, nullopt for an
  /// unseen tuple. No counters move, no FID is assigned, last-seen stays
  /// untouched. The slo-early-drop ingress gate uses this to ask "is this
  /// flow already doomed?" before spending any classify/record work.
  std::optional<std::uint32_t> peek(const net::FiveTuple& tuple) const {
    const std::uint32_t fid =
        by_tuple_.find_index(tuple, FlowHash{tuple.hash()});
    if (fid == Table::kNoIndex) return std::nullopt;
    return fid;
  }

  /// Free the flow and its FID after the teardown packet has been fully
  /// processed. A FID that is not live is ignored.
  void release_flow(std::uint32_t fid);

  /// An active flow as seen by migration: its tuple, FID and last-seen
  /// stamp (preserved across shards so idle expiry keeps its clock).
  struct ActiveFlow {
    net::FiveTuple tuple;
    std::uint32_t fid = net::kInvalidFid;
    std::uint64_t last_seen_cycles = 0;
  };

  /// Snapshot of every active flow — what live resharding enumerates to
  /// decide which flows leave this shard.
  std::vector<ActiveFlow> active_tuples() const;

  /// Admit a flow migrated from another shard: assigns a FID (as classify
  /// does) and installs the tuple with its original last-seen stamp.
  /// Unlike classify this does NOT count an initial packet — the flow is
  /// established, and its next packet must take the subsequent path.
  /// nullopt while every FID is live.
  std::optional<std::uint32_t> adopt_flow(const net::FiveTuple& tuple,
                                          std::uint64_t last_seen_cycles);

  /// FIDs of flows whose last packet is older than `max_age_cycles` before
  /// `now`. FIN/RST covers TCP teardown (§VI-B); idle expiry is the
  /// complementary garbage collection for UDP and abandoned connections.
  /// The caller tears each flow down (Global MAT erase + release_flow).
  std::vector<std::uint32_t> collect_idle(std::uint64_t now_cycles,
                                          std::uint64_t max_age_cycles) const;

  std::size_t active_flows() const noexcept { return by_tuple_.size(); }
  /// How many new flows could be admitted now.
  std::size_t free_fid_count() const noexcept {
    return kMaxFlows - by_tuple_.size();
  }
  std::uint64_t initial_count() const noexcept { return initial_count_; }
  std::uint64_t subsequent_count() const noexcept { return subsequent_count_; }

  /// Flow-table telemetry of the tuple->FID table.
  FlowTableStats table_stats() const { return by_tuple_.stats(); }

 private:
  static constexpr std::size_t kMaxFlows = std::size_t{net::kFidMask} + 1;

  /// A live flow's entry, at record index FID: its tuple (release_flow's
  /// key) and last-seen stamp. The per-packet stamp is a store here, which
  /// no later step waits on. The stamp reuses the packet's arrival stamp
  /// when the caller provided one, so idle tracking adds no counter read.
  struct TupleEntry {
    net::FiveTuple tuple;
    std::uint64_t last_seen_cycles = 0;
  };
  using Table = FlowTable<net::FiveTuple, TupleEntry>;

  /// Flow table: the single per-packet lookup. The tuple is hashed once per
  /// packet and the hash reused for the lookup and the insert.
  Table by_tuple_;
  std::uint64_t initial_count_ = 0;
  std::uint64_t subsequent_count_ = 0;
};

}  // namespace speedybox::core
