#include "nf/monitor.hpp"

#include <algorithm>
#include <stdexcept>

#include "nf/flow_state.hpp"
#include "util/hash.hpp"
#include "util/prefetch.hpp"

namespace speedybox::nf {

Monitor::Monitor(MonitorConfig config, std::string name)
    : NetworkFunction(std::move(name)), config_(config) {
  if (config_.sketch_depth > MonitorConfig::kMaxSketchDepth) {
    throw std::invalid_argument("Monitor: more than kMaxSketchDepth rows");
  }
  sketch_.assign(config_.sketch_depth,
                 std::vector<std::uint64_t>(config_.sketch_width, 0));
  if (config_.per_port_stats) port_bytes_.assign(65536, 0);
  if (config_.payload_histogram) byte_histogram_.assign(256, 0);
}

FlowCounters& Monitor::account(const core::HashedTuple& flow,
                               const net::Packet& packet,
                               const net::ParsedPacket& parsed) {
  // The tuple was hashed exactly once upstream; the same hash indexes the
  // flow table and every sketch row.
  FlowCounters& counters = *counters_.try_emplace(flow.tuple, flow.hash).first;
  count(counters, packet.size());

  if (config_.sketch_depth > 0) {
    const std::uint64_t h = flow.hash.value;
    for (std::uint32_t row = 0; row < config_.sketch_depth; ++row) {
      const std::uint64_t index =
          util::mix64(h ^ (0x9E3779B97F4A7C15ULL * (row + 1))) %
          config_.sketch_width;
      sketch_[row][index] += packet.size();
    }
  }
  if (config_.per_port_stats) {
    port_bytes_[flow.tuple.dst_port] += packet.size();
  }
  if (config_.payload_histogram) {
    for (const std::uint8_t byte : net::payload_view(packet, parsed)) {
      ++byte_histogram_[byte];
    }
  }
  return counters;
}

void Monitor::process_batch(net::PacketBatch& batch,
                            std::span<core::SpeedyBoxContext* const> ctxs) {
  // Pre-pass (stateless, so hoisting it out of slot order cannot change
  // behavior): parse + validate every live packet, extract its five-tuple,
  // and prefetch the sketch cells the accounting pass will increment.
  // Everything stateful — counter updates, map insertions — runs in slot
  // order in the second pass, keeping the batch bit-identical to scalar.
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
      // Recording stays scalar (DESIGN.md §8): it runs once per flow and
      // its record writes must interleave exactly as on the scalar path.
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
    const auto flow = core::HashedTuple::of(
        net::extract_five_tuple(packet, *parsed));
    counters_.prefetch(flow.hash);
    if (config_.sketch_depth > 0) {
      const std::uint64_t h = flow.hash.value;
      for (std::uint32_t row = 0; row < config_.sketch_depth; ++row) {
        const std::uint64_t index =
            util::mix64(h ^ (0x9E3779B97F4A7C15ULL * (row + 1))) %
            config_.sketch_width;
        util::prefetch_write(&sketch_[row][index]);
      }
    }
    live.push_back({i, *parsed, flow});
  }
  for (const Live& entry : live) {
    account(entry.flow, batch.packet(entry.slot), entry.parsed);
  }
}

std::uint64_t Monitor::estimate_flow_bytes(const net::FiveTuple& tuple) const {
  if (config_.sketch_depth == 0) return 0;
  const std::uint64_t h = tuple.hash();
  std::uint64_t estimate = ~0ULL;
  for (std::uint32_t row = 0; row < config_.sketch_depth; ++row) {
    const std::uint64_t index =
        util::mix64(h ^ (0x9E3779B97F4A7C15ULL * (row + 1))) %
        config_.sketch_width;
    estimate = std::min(estimate, sketch_[row][index]);
  }
  return estimate;
}

std::uint64_t Monitor::port_bytes(std::uint16_t dst_port) const {
  return config_.per_port_stats ? port_bytes_[dst_port] : 0;
}

void Monitor::process(net::Packet& packet, core::SpeedyBoxContext* ctx) {
  count_packet();
  const auto parsed = parse_and_check(packet);  // R1: per-NF parse+validate
  if (!parsed) return;
  const auto flow =
      core::HashedTuple::of(net::extract_five_tuple(packet, *parsed));

  FlowCounters& counters = account(flow, packet, *parsed);
  if (ctx != nullptr) record(flow, counters, *ctx);
}

void Monitor::record(const core::HashedTuple& flow, FlowCounters& counters,
                     core::SpeedyBoxContext& ctx) {
  ctx.add_header_action(core::HeaderAction::forward());
  // Figure-2 semantics: the handler is recorded with resolved args — the
  // flow's counter record (slab-resident, pointer-stable across table
  // resizes) and, when the optional statistics are on, its precomputed
  // sketch/port cells — so the per-packet classification work (hashing,
  // table lookups) happens once, at rule setup.
  FlowCounters* flow_counters = &counters;
  const bool histogram = config_.payload_histogram;
  if (config_.sketch_depth == 0 && !config_.per_port_stats && !histogram) {
    core::localmat_add_SF(
        &ctx,
        [this, flow_counters](net::Packet& pkt, const net::ParsedPacket&) {
          count(*flow_counters, pkt.size());
        },
        core::PayloadAccess::kIgnore, count_name_, flow_counters);
    return;
  }
  StatCells* cells = stat_cells_.try_emplace(flow.tuple, flow.hash).first;
  const std::uint64_t h = flow.hash.value;
  for (std::uint32_t row = 0; row < config_.sketch_depth; ++row) {
    const std::uint64_t index =
        util::mix64(h ^ (0x9E3779B97F4A7C15ULL * (row + 1))) %
        config_.sketch_width;
    cells->sketch[row] = &sketch_[row][index];
  }
  cells->port =
      config_.per_port_stats ? &port_bytes_[flow.tuple.dst_port] : nullptr;
  core::localmat_add_SF(
      &ctx,
      [this, flow_counters, cells](net::Packet& pkt,
                                   const net::ParsedPacket& parsed) {
        const std::uint64_t size = pkt.size();
        count(*flow_counters, size);
        for (std::uint32_t row = 0; row < config_.sketch_depth; ++row) {
          *cells->sketch[row] += size;
        }
        if (cells->port != nullptr) *cells->port += size;
        if (config_.payload_histogram) {
          for (const std::uint8_t byte : net::payload_view(
                   static_cast<const net::Packet&>(pkt), parsed)) {
            ++byte_histogram_[byte];
          }
        }
      },
      histogram ? core::PayloadAccess::kRead : core::PayloadAccess::kIgnore,
      count_name_, flow_counters);
  ctx.on_teardown(
      [this, tuple = flow.tuple]() { stat_cells_.erase(tuple); });
}

std::optional<std::vector<std::uint8_t>> Monitor::export_flow_state(
    const net::FiveTuple& tuple) {
  auto payload = counters_.export_state(tuple);
  // Move semantics (see monitor.hpp): the counters leave with the flow so
  // the shard union stays a partition of the global audit state.
  if (payload) counters_.erase(tuple);
  return payload;
}

void Monitor::import_flow_state(const net::FiveTuple& tuple,
                                std::span<const std::uint8_t> bytes,
                                core::SpeedyBoxContext* ctx) {
  FlowCounters& counters = counters_.import_state(tuple, bytes);
  if (ctx != nullptr) record(core::HashedTuple::of(tuple), counters, *ctx);
}

}  // namespace speedybox::nf
