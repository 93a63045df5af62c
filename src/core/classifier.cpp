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
  const std::uint32_t known = by_tuple_.find_index(tuple, flow.hash);
  if (known != Table::kNoIndex) {
    result.path = Path::kSubsequent;
    result.fid = known;
    by_tuple_.value_at(known).last_seen_cycles = stamp;
    ++subsequent_count_;
  } else {
    if (by_tuple_.size() == kMaxFlows) return std::nullopt;  // every FID live
    result.path = Path::kInitial;
    result.fid =
        by_tuple_.try_emplace_index(tuple, flow.hash, TupleEntry{tuple, stamp})
            .first;
    ++initial_count_;
  }

  packet.set_fid(result.fid);
  packet.set_initial(result.path == Path::kInitial);
  return result;
}

void PacketClassifier::release_flow(std::uint32_t fid) {
  if (!by_tuple_.holds_index(fid)) return;
  // The key is copied out first: erasing ends the entry it sits in.
  const net::FiveTuple tuple = by_tuple_.value_at(fid).tuple;
  by_tuple_.erase(tuple);
}

std::vector<PacketClassifier::ActiveFlow> PacketClassifier::active_tuples()
    const {
  std::vector<ActiveFlow> flows;
  flows.reserve(by_tuple_.size());
  by_tuple_.for_each_indexed([&flows](const net::FiveTuple& tuple,
                                      std::uint32_t fid,
                                      const TupleEntry& entry) {
    flows.push_back({tuple, fid, entry.last_seen_cycles});
  });
  return flows;
}

std::optional<std::uint32_t> PacketClassifier::adopt_flow(
    const net::FiveTuple& tuple, std::uint64_t last_seen_cycles) {
  if (by_tuple_.size() == kMaxFlows) return std::nullopt;
  return by_tuple_
      .try_emplace_index(tuple, FlowHash{tuple.hash()},
                         TupleEntry{tuple, last_seen_cycles})
      .first;
}

std::vector<std::uint32_t> PacketClassifier::collect_idle(
    std::uint64_t now_cycles, std::uint64_t max_age_cycles) const {
  std::vector<std::uint32_t> idle;
  by_tuple_.for_each_indexed(
      [&](const net::FiveTuple&, std::uint32_t fid, const TupleEntry& entry) {
        if (now_cycles - entry.last_seen_cycles > max_age_cycles) {
          idle.push_back(fid);
        }
      });
  return idle;
}

}  // namespace speedybox::core
