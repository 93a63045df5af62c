#include "core/classifier.hpp"

#include "net/checksum.hpp"
#include "util/cycle_clock.hpp"

namespace speedybox::core {

std::optional<PacketClassifier::Classification> PacketClassifier::classify(
    net::Packet& packet) {
  // Parse and validate once for the whole chain; the fast path never
  // re-parses or re-validates (R1 amortization).
  const auto parsed = net::parse_packet(packet);
  if (!parsed || !net::verify_ipv4_checksum(packet, parsed->l3_offset)) {
    return std::nullopt;
  }
  return classify(packet,
                  HashedTuple::of(net::extract_five_tuple(packet, *parsed)),
                  *parsed);
}

std::optional<PacketClassifier::Classification> PacketClassifier::classify(
    net::Packet& packet, const HashedTuple& flow,
    const net::ParsedPacket& parsed) {
  Classification result;
  result.parsed = parsed;
  result.teardown = parsed.is_tcp() && parsed.has_fin_or_rst();

  // One hash serves the lookup and the insert.
  const net::FiveTuple& tuple = flow.tuple;
  const std::uint64_t stamp = packet.arrival_cycle() != 0
                                  ? packet.arrival_cycle()
                                  : util::CycleClock::now();
  if (TupleEntry* record = by_tuple_.find(tuple, flow.hash)) {
    result.path = Path::kSubsequent;
    result.fid = record->fid;
    record->last_seen_cycles = stamp;
    ++subsequent_count_;
  } else {
    const auto fid = assign_fid(tuple);
    if (!fid) return std::nullopt;  // every FID is live: refuse the flow
    result.path = Path::kInitial;
    result.fid = *fid;
    by_tuple_.try_emplace(tuple, flow.hash, TupleEntry{result.fid, stamp});
    ++initial_count_;
  }

  packet.set_fid(result.fid);
  packet.set_initial(result.path == Path::kInitial);
  return result;
}

std::optional<std::uint32_t> PacketClassifier::assign_fid(
    const net::FiveTuple& tuple) {
  std::uint32_t fid;
  if (!free_fids_.empty()) {
    fid = free_fids_.back();
    free_fids_.pop_back();
  } else if (fids_.size() <= net::kFidMask) {
    fid = static_cast<std::uint32_t>(fids_.size());
    fids_.emplace_back();
  } else {
    return std::nullopt;
  }
  fids_[fid] = FidSlot{tuple, true};
  return fid;
}

void PacketClassifier::release_flow(std::uint32_t fid) {
  if (fid >= fids_.size() || !fids_[fid].live) return;
  by_tuple_.erase(fids_[fid].tuple);
  fids_[fid].live = false;
  free_fids_.push_back(fid);
}

std::vector<PacketClassifier::ActiveFlow> PacketClassifier::active_tuples()
    const {
  std::vector<ActiveFlow> flows;
  flows.reserve(by_tuple_.size());
  by_tuple_.for_each(
      [&flows](const net::FiveTuple& tuple, const TupleEntry& record) {
        flows.push_back({tuple, record.fid, record.last_seen_cycles});
      });
  return flows;
}

std::optional<std::uint32_t> PacketClassifier::adopt_flow(
    const net::FiveTuple& tuple, std::uint64_t last_seen_cycles) {
  const auto fid = assign_fid(tuple);
  if (fid) by_tuple_.try_emplace(tuple, TupleEntry{*fid, last_seen_cycles});
  return fid;
}

std::vector<std::uint32_t> PacketClassifier::collect_idle(
    std::uint64_t now_cycles, std::uint64_t max_age_cycles) const {
  std::vector<std::uint32_t> idle;
  by_tuple_.for_each([&](const net::FiveTuple&, const TupleEntry& record) {
    if (now_cycles - record.last_seen_cycles > max_age_cycles) {
      idle.push_back(record.fid);
    }
  });
  return idle;
}

}  // namespace speedybox::core
