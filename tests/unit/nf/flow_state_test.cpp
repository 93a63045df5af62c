// Per-NF flow-state serialization (DESIGN.md §10): export → import into an
// identically configured replica → re-export must be byte-identical, and
// the replica must keep processing the flow exactly as the source would
// have. These are the unit-level guarantees the live-resharding migration
// engine builds on; the autoscale differential harness then proves the
// composed chain-level property.
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/flow_record.hpp"
#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "nf/dos_prevention.hpp"
#include "nf/flow_state.hpp"
#include "nf/ip_filter.hpp"
#include "nf/maglev_lb.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "nf/network_function.hpp"
#include "nf/snort_ids.hpp"
#include "test_helpers.hpp"
#include "trace/payload_synth.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

/// Recording scaffold: a flow record plus a context into it, mirroring
/// what the migration engine hands import_flow_state.
struct Recorder {
  core::FlowRecord record;
  core::SpeedyBoxContext ctx;
  explicit Recorder(std::uint32_t fid) : ctx{record, 0, fid} {}
};

/// export(source) → import(dest) → export(dest): both exports must exist
/// and carry identical bytes. Returns the payload for further checks.
std::vector<std::uint8_t> roundtrip(NetworkFunction& source,
                                    NetworkFunction& dest,
                                    const net::FiveTuple& tuple,
                                    core::SpeedyBoxContext* ctx = nullptr) {
  const auto exported = source.export_flow_state(tuple);
  EXPECT_TRUE(exported.has_value());
  if (!exported) return {};
  dest.import_flow_state(tuple, *exported, ctx);
  const auto reexported = dest.export_flow_state(tuple);
  EXPECT_TRUE(reexported.has_value());
  if (reexported) {
    EXPECT_EQ(*exported, *reexported);
  }
  return *exported;
}

TEST(FlowStateWire, RoundTripsEveryFieldType) {
  FlowStateWriter writer;
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);
  writer.boolean(true);
  writer.tuple(tuple_n(7));
  const std::vector<std::uint8_t> bytes = writer.take();

  FlowStateReader reader{bytes};
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(reader.boolean());
  EXPECT_EQ(reader.tuple(), tuple_n(7));
  EXPECT_TRUE(reader.done());
}

TEST(FlowStateWire, TruncatedPayloadThrows) {
  FlowStateWriter writer;
  writer.u32(42);
  const std::vector<std::uint8_t> bytes = writer.take();
  FlowStateReader reader{bytes};
  EXPECT_THROW(reader.u64(), std::out_of_range);
}

TEST(FlowStateDefaults, UnimplementedNfFailsLoudlyWithName) {
  struct Opaque final : NetworkFunction {
    Opaque() : NetworkFunction("opaque-box") {}
    void process(net::Packet&, core::SpeedyBoxContext*) override {}
  } nf;
  EXPECT_FALSE(nf.supports_flow_migration());
  try {
    nf.export_flow_state(tuple_n(1));
    FAIL() << "export on a non-migratable NF must throw";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string{error.what()}.find("opaque-box"),
              std::string::npos);
  }
  EXPECT_THROW(nf.import_flow_state(tuple_n(1), {}, nullptr),
               std::logic_error);
}

TEST(FlowStateDefaults, NoStateExportsNullopt) {
  Monitor monitor;
  EXPECT_EQ(monitor.export_flow_state(tuple_n(1)), std::nullopt);
  IpFilter filter{std::vector<AclRule>{}};
  EXPECT_EQ(filter.export_flow_state(tuple_n(1)), std::nullopt);
}

// --- MazuNAT --------------------------------------------------------------

TEST(MazuNatFlowState, OutboundRoundTripPreservesPortMap) {
  MazuNat source;
  net::Packet initial = net::make_tcp_packet(tuple_n(1), "x");
  source.process(initial, nullptr);
  const auto source_port = source.mapping_of(tuple_n(1));
  ASSERT_TRUE(source_port.has_value());

  auto clone = source.clone_checked();
  auto& dest = static_cast<MazuNat&>(*clone);
  roundtrip(source, dest, tuple_n(1));

  // Port-map determinism: the imported mapping IS the source's mapping,
  // so post-migration packets translate to the identical external port.
  EXPECT_EQ(dest.mapping_of(tuple_n(1)), source_port);
  net::Packet via_source = net::make_tcp_packet(tuple_n(1), "next");
  net::Packet via_dest = net::make_tcp_packet(tuple_n(1), "next");
  source.process(via_source, nullptr);
  dest.process(via_dest, nullptr);
  EXPECT_TRUE(speedybox::testing::same_bytes(via_source, via_dest));
}

TEST(MazuNatFlowState, ImportReRecordsActionsAndTeardown) {
  MazuNat source;
  net::Packet initial = net::make_tcp_packet(tuple_n(2), "x");
  source.process(initial, nullptr);

  auto clone = source.clone_checked();
  auto& dest = static_cast<MazuNat&>(*clone);
  Recorder rec{5};
  roundtrip(source, dest, tuple_n(2), &rec.ctx);

  const core::FlowRecord* rule = &rec.record;
  ASSERT_EQ(rule->header_actions.size(), 2u);
  EXPECT_EQ(rule->header_actions[0].field, net::HeaderField::kSrcIp);
  EXPECT_EQ(rule->header_actions[1].field, net::HeaderField::kSrcPort);
  EXPECT_EQ(rule->header_actions[1].value,
            static_cast<std::uint32_t>(*dest.mapping_of(tuple_n(2))));

  // The teardown hook must release the DESTINATION's mapping.
  EXPECT_EQ(dest.active_mappings(), 1u);
  rec.record.run_teardown_hooks();
  EXPECT_EQ(dest.active_mappings(), 0u);
  EXPECT_EQ(source.active_mappings(), 1u);
}

TEST(MazuNatFlowState, InboundRoundTripTranslatesIdentically) {
  MazuNat source;
  net::Packet outbound = net::make_tcp_packet(tuple_n(3), "req");
  source.process(outbound, nullptr);
  const std::uint16_t ext_port = source.mapping_of(tuple_n(3)).value();

  net::FiveTuple reply;
  reply.src_ip = tuple_n(3).dst_ip;
  reply.src_port = tuple_n(3).dst_port;
  reply.dst_ip = MazuNatConfig{}.external_ip;
  reply.dst_port = ext_port;
  reply.proto = tuple_n(3).proto;
  net::Packet prime = net::make_tcp_packet(reply, "resp");
  source.process(prime, nullptr);  // records the inbound flow

  // Import the inbound payload into a FRESH replica: it must reconstruct
  // both directions of the mapping from the carried original tuple.
  MazuNat dest;
  roundtrip(source, dest, reply);
  net::Packet via_source = net::make_tcp_packet(reply, "more");
  net::Packet via_dest = net::make_tcp_packet(reply, "more");
  source.process(via_source, nullptr);
  dest.process(via_dest, nullptr);
  EXPECT_FALSE(via_dest.dropped());
  EXPECT_TRUE(speedybox::testing::same_bytes(via_source, via_dest));
  EXPECT_EQ(dest.mapping_of(tuple_n(3)), ext_port);
}

TEST(MazuNatFlowState, UnknownKindThrows) {
  MazuNat nat;
  FlowStateWriter writer;
  writer.u8(99);
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_THROW(nat.import_flow_state(tuple_n(4), bytes, nullptr),
               std::invalid_argument);
}

// --- MaglevLb -------------------------------------------------------------

std::vector<Backend> two_backends() {
  return {{"b0", net::Ipv4Addr{10, 2, 0, 10}, 8000, true},
          {"b1", net::Ipv4Addr{10, 2, 0, 11}, 8001, true}};
}

TEST(MaglevLbFlowState, ConnTrackSurvivesMigration) {
  MaglevLb source{two_backends(), 13};
  net::Packet initial = net::make_tcp_packet(tuple_n(1), "x");
  source.process(initial, nullptr);
  const auto backend = source.backend_of(tuple_n(1));
  ASSERT_TRUE(backend.has_value());

  auto clone = source.clone_checked();
  auto& dest = static_cast<MaglevLb&>(*clone);
  roundtrip(source, dest, tuple_n(1));
  EXPECT_EQ(dest.backend_of(tuple_n(1)), backend);

  // Stickiness is the migrated property: even after the hash-preferred
  // backend fails, the imported flow keeps steering to its backend.
  net::Packet via_source = net::make_tcp_packet(tuple_n(1), "next");
  net::Packet via_dest = net::make_tcp_packet(tuple_n(1), "next");
  source.process(via_source, nullptr);
  dest.process(via_dest, nullptr);
  EXPECT_TRUE(speedybox::testing::same_bytes(via_source, via_dest));
}

TEST(MaglevLbFlowState, OutOfRangeBackendRejected) {
  MaglevLb lb{two_backends(), 13};
  FlowStateWriter writer;
  writer.u64(7);  // only 2 backends exist
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_THROW(lb.import_flow_state(tuple_n(2), bytes, nullptr),
               std::invalid_argument);
  // The rejected import must not leave the flow tracked.
  EXPECT_EQ(lb.backend_of(tuple_n(2)), std::nullopt);
}

TEST(MaglevLbFlowState, TruncatedPayloadRejected) {
  MaglevLb lb{two_backends(), 13};
  FlowStateWriter writer;
  writer.u32(0);  // half a backend-index payload
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_THROW(lb.import_flow_state(tuple_n(3), bytes, nullptr),
               std::out_of_range);
  EXPECT_EQ(lb.backend_of(tuple_n(3)), std::nullopt);
}

// --- Monitor --------------------------------------------------------------

TEST(MonitorFlowState, ExportMovesCountersSoShardsStayAPartition) {
  Monitor source;
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(1), "abc");
    source.process(packet, nullptr);
  }
  const FlowCounters* found = source.counters_of(tuple_n(1));
  ASSERT_NE(found, nullptr);
  const FlowCounters expected = *found;

  const auto exported = source.export_flow_state(tuple_n(1));
  ASSERT_TRUE(exported.has_value());
  // Move semantics: the source sheds the entry at export time.
  EXPECT_EQ(source.counters_of(tuple_n(1)), nullptr);
  EXPECT_EQ(source.export_flow_state(tuple_n(1)), std::nullopt);

  Monitor dest;
  dest.import_flow_state(tuple_n(1), *exported, nullptr);
  const FlowCounters* imported = dest.counters_of(tuple_n(1));
  ASSERT_NE(imported, nullptr);
  EXPECT_EQ(*imported, expected);
  EXPECT_EQ(dest.export_flow_state(tuple_n(1)), exported);
}

// --- IpFilter -------------------------------------------------------------

TEST(IpFilterFlowState, CachedVerdictsRoundTrip) {
  const std::vector<AclRule> acl{
      AclRule::drop_dst_prefix(net::Ipv4Addr{10, 1, 3, 0}, 24)};
  IpFilter source{acl};
  net::FiveTuple blocked = tuple_n(1);
  blocked.dst_ip = net::Ipv4Addr{10, 1, 3, 9};
  for (const net::FiveTuple& tuple : {tuple_n(2), blocked}) {
    net::Packet packet = net::make_tcp_packet(tuple, "x");
    source.process(packet, nullptr);
  }

  IpFilter dest{acl};
  Recorder pass_rec{1};
  const auto pass_payload = roundtrip(source, dest, tuple_n(2),
                                      &pass_rec.ctx);
  Recorder drop_rec{2};
  const auto drop_payload = roundtrip(source, dest, blocked, &drop_rec.ctx);
  EXPECT_NE(pass_payload, drop_payload);

  // The re-recorded rule must reproduce the verdict.
  EXPECT_EQ(pass_rec.record.header_actions[0].type,
            core::HeaderActionType::kForward);
  EXPECT_EQ(drop_rec.record.header_actions[0].type,
            core::HeaderActionType::kDrop);
  EXPECT_EQ(dest.cached_flows(), 2u);
}

// --- SnortIds -------------------------------------------------------------

TEST(SnortIdsFlowState, CandidateRuleGroupRoundTrips) {
  SnortIds source{trace::default_snort_rules()};
  net::Packet initial = net::make_tcp_packet(tuple_n(1), "hello");
  source.process(initial, nullptr);
  ASSERT_EQ(source.tracked_flows(), 1u);

  auto clone = source.clone_checked();
  auto& dest = static_cast<SnortIds&>(*clone);
  roundtrip(source, dest, tuple_n(1));
  EXPECT_EQ(dest.tracked_flows(), 1u);

  // Post-migration inspection uses the identical candidate group: the same
  // follow-up packet produces the same verdict and audit deltas.
  net::Packet via_source = net::make_tcp_packet(tuple_n(1), "attackdata");
  net::Packet via_dest = net::make_tcp_packet(tuple_n(1), "attackdata");
  source.process(via_source, nullptr);
  dest.process(via_dest, nullptr);
  EXPECT_EQ(via_source.dropped(), via_dest.dropped());
  EXPECT_TRUE(speedybox::testing::same_bytes(via_source, via_dest));
}

TEST(SnortIdsFlowState, OutOfRangeRuleIndexRejected) {
  SnortIds ids{trace::default_snort_rules()};
  FlowStateWriter writer;
  writer.u32(1);
  writer.u32(1000000);
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_THROW(ids.import_flow_state(tuple_n(1), bytes, nullptr),
               std::invalid_argument);
}

// --- DosPrevention --------------------------------------------------------

net::Packet syn_packet(std::uint32_t flow) {
  return net::make_tcp_packet(tuple_n(flow), "", net::kTcpFlagSyn);
}

TEST(DosPreventionFlowState, SynCounterSurvivesMigration) {
  DosPrevention source{100};
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = syn_packet(1);
    source.process(packet, nullptr);
  }
  auto clone = source.clone_checked();
  auto& dest = static_cast<DosPrevention&>(*clone);
  roundtrip(source, dest, tuple_n(1));
  EXPECT_EQ(dest.syn_count(tuple_n(1)), 3u);
  EXPECT_FALSE(dest.is_blacklisted(tuple_n(1)));
}

TEST(DosPreventionFlowState, BlacklistedFlowImportsAsDropWithoutReArming) {
  DosPrevention source{1};
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = syn_packet(2);
    source.process(packet, nullptr);
  }
  ASSERT_TRUE(source.is_blacklisted(tuple_n(2)));

  auto clone = source.clone_checked();
  auto& dest = static_cast<DosPrevention&>(*clone);
  Recorder rec{3};
  roundtrip(source, dest, tuple_n(2), &rec.ctx);
  EXPECT_TRUE(dest.is_blacklisted(tuple_n(2)));

  // The re-recorded rule drops; the one-shot blacklist event is NOT
  // re-armed (it already fired on the source shard — re-arming would
  // double-count drops when the consolidated rule replays it).
  const core::FlowRecord* rule = &rec.record;
  EXPECT_EQ(rule->header_actions[0].type, core::HeaderActionType::kDrop);
  EXPECT_TRUE(rec.record.events.empty());
}

}  // namespace
}  // namespace speedybox::nf
