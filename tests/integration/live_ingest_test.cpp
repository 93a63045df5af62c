// Closed-loop live ingestion over real loopback sockets: the loadgen →
// IngestServer → Executor → chain path must deliver byte-identical
// post-chain packets to the in-process trace:: drive of the SAME workload,
// on both §VII-C evaluation chains; frame conservation must hold with
// garbage mixed in; and a SYN flood replayed over the wire must trip
// nf::DosPrevention's blacklist exactly as the in-process run does.
//
// UDP runs are single-threaded and deterministic: the sender socket is
// loaded BEFORE serve() starts (datagrams queue in the receive buffer,
// sized well above the workload), so ordering and zero-drop delivery are
// guaranteed. TCP runs send from a thread while serve() drains.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chain_fixtures.hpp"
#include "io/ingest_server.hpp"
#include "io/loadgen.hpp"
#include "io/socket.hpp"
#include "net/packet_builder.hpp"
#include "nf/dos_prevention.hpp"
#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "test_helpers.hpp"
#include "trace/payload_synth.hpp"
#include "trace/workload.hpp"

namespace speedybox::io {
namespace {

using speedybox::testing::same_bytes;

/// §VII-C Chain 1: MazuNAT -> Maglev -> Monitor -> IPFilter.
const auto chain1_gateway = speedybox::testing::make_chain1;
/// §VII-C Chain 2: IPFilter -> Snort -> Monitor.
const auto chain2_inspection = speedybox::testing::make_chain2;

trace::Workload small_datacenter_workload(std::uint64_t seed,
                                          bool plant_snort) {
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 40;
  config.seed = seed;
  trace::Workload workload = make_datacenter_workload(config);
  if (plant_snort) {
    trace::PayloadSynthConfig synth;
    synth.match_fraction = 0.25;
    plant_rule_contents(workload, trace::default_snort_rules(), synth);
  }
  return workload;
}

runtime::RunConfig speedybox_run_config() {
  runtime::RunConfig config{platform::PlatformKind::kBess, true};
  config.batch_size = 32;
  return config;
}

/// Reference: the in-process drive every equivalence suite uses.
std::vector<net::Packet> run_in_process(runtime::ServiceChain& chain,
                                        const trace::Workload& workload,
                                        runtime::RunStats* stats_out) {
  runtime::ChainRunner runner{chain, speedybox_run_config()};
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  std::vector<net::Packet> outputs;
  const runtime::RunStats& stats = runner.run(packets, &outputs);
  if (stats_out != nullptr) *stats_out = stats;
  return outputs;
}

/// Forwards every burst to `inner` with keep, so drain() hands back the
/// post-chain packets the byte comparisons read.
class KeepingExecutor final : public runtime::Executor {
 public:
  explicit KeepingExecutor(runtime::Executor& inner) : inner_(inner) {}
  std::string_view kind() const noexcept override { return inner_.kind(); }
  void submit(std::span<net::Packet> burst, bool) override {
    inner_.submit(burst, /*keep=*/true);
  }
  const runtime::RunStats& drain(std::vector<net::Packet>* outputs) override {
    return inner_.drain(outputs);
  }
  std::size_t batch_size() const noexcept override {
    return inner_.batch_size();
  }
  const runtime::RunStats& stats() const noexcept override {
    return inner_.stats();
  }
  void attach_telemetry(telemetry::Registry* registry,
                        const std::string& label) override {
    inner_.attach_telemetry(registry, label);
  }

 private:
  runtime::Executor& inner_;
};

/// One destination: the server's port for `proto`.
LoadgenConfig loadgen_to(std::uint16_t port,
                         IngestProto proto = IngestProto::kUdp) {
  LoadgenConfig gen;
  gen.ports = {port};
  gen.proto = proto;
  return gen;
}

struct LiveResult {
  std::vector<net::Packet> outputs;
  IngestStats ingest;
  runtime::RunStats stats;
  std::uint64_t sent = 0;
};

/// Wire drive: replay `workload` over loopback into an IngestServer
/// feeding `executor`, capturing post-chain outputs.
LiveResult run_live(runtime::Executor& executor,
                    const trace::Workload& workload, IngestProto proto) {
  IngestConfig config;
  config.proto = proto;
  config.idle_timeout_ms = 300;
  IngestServer server{config};
  KeepingExecutor keeping{executor};

  LiveResult result;
  LoadgenReport report;
  if (proto == IngestProto::kUdp) {
    // Load the receive buffer before serving: deterministic, ordered,
    // zero-drop (the workload is far smaller than rcvbuf_bytes).
    report = replay_workload(workload, loadgen_to(server.udp_port())).front();
    result.ingest = server.serve(keeping);
  } else {
    std::thread sender([&] {
      report = replay_workload(workload, loadgen_to(server.tcp_port(), proto))
                   .front();
    });
    result.ingest = server.serve(keeping);
    sender.join();
  }
  EXPECT_EQ(report.send_errors, 0u);
  EXPECT_EQ(report.error, "");
  result.sent = report.sent;
  result.stats = keeping.drain(&result.outputs);
  return result;
}

void expect_byte_identical(const std::vector<net::Packet>& live,
                           const std::vector<net::Packet>& reference) {
  ASSERT_EQ(live.size(), reference.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(same_bytes(live[i], reference[i])) << "packet " << i;
    EXPECT_EQ(live[i].dropped(), reference[i].dropped()) << "packet " << i;
  }
}

TEST(LiveIngest, Chain1GatewayByteIdenticalOverUdp) {
  const trace::Workload workload = small_datacenter_workload(20190708, false);
  const auto reference_chain = chain1_gateway();
  const std::vector<net::Packet> reference =
      run_in_process(*reference_chain, workload, nullptr);

  const auto live_chain = chain1_gateway();
  runtime::ChainRunner runner{*live_chain, speedybox_run_config()};
  const LiveResult live = run_live(runner, workload, IngestProto::kUdp);

  EXPECT_EQ(live.ingest.parse_errors, 0u);
  EXPECT_EQ(live.ingest.socket_drops, 0u);
  EXPECT_EQ(live.ingest.rx_frames, live.sent);
  // The busy window excludes the idle tail but covers the drain.
  EXPECT_GT(live.ingest.drive_seconds, 0.0);
  EXPECT_LT(live.ingest.drive_seconds, 10.0);
  expect_byte_identical(live.outputs, reference);
}

TEST(LiveIngest, Chain2InspectionByteIdenticalOverUdp) {
  const trace::Workload workload = small_datacenter_workload(5550123, true);
  const auto reference_chain = chain2_inspection();
  runtime::RunStats reference_stats;
  const std::vector<net::Packet> reference =
      run_in_process(*reference_chain, workload, &reference_stats);

  const auto live_chain = chain2_inspection();
  runtime::ChainRunner runner{*live_chain, speedybox_run_config()};
  const LiveResult live = run_live(runner, workload, IngestProto::kUdp);

  EXPECT_EQ(live.ingest.parse_errors, 0u);
  EXPECT_EQ(live.ingest.socket_drops, 0u);
  expect_byte_identical(live.outputs, reference);
  // Snort verdicts and ACL drops match exactly, not just bytes.
  EXPECT_EQ(live.stats.drops, reference_stats.drops);
  EXPECT_EQ(live.stats.packets, reference_stats.packets);
}

TEST(LiveIngest, Chain2InspectionByteIdenticalOverTcp) {
  const trace::Workload workload = small_datacenter_workload(777, true);
  const auto reference_chain = chain2_inspection();
  const std::vector<net::Packet> reference =
      run_in_process(*reference_chain, workload, nullptr);

  const auto live_chain = chain2_inspection();
  runtime::ChainRunner runner{*live_chain, speedybox_run_config()};
  const LiveResult live = run_live(runner, workload, IngestProto::kTcp);

  EXPECT_EQ(live.ingest.tcp_connections, 1u);
  EXPECT_EQ(live.ingest.poisoned_streams, 0u);
  EXPECT_EQ(live.ingest.parse_errors, 0u);
  EXPECT_EQ(live.ingest.rx_frames, live.sent);
  expect_byte_identical(live.outputs, reference);
}

TEST(LiveIngest, SynFloodOverWireTripsDosBlacklistExactly) {
  // Acceptance: the syn-flood scenario replayed over the wire must drive
  // DosPrevention to the same blacklist verdicts as the in-process run —
  // same drop count, same survivor count.
  const trace::Workload workload = trace::make_syn_flood_workload({});
  auto reference_chain =
      std::make_unique<runtime::ServiceChain>("dos_inspection");
  reference_chain->emplace_nf<nf::DosPrevention>(std::uint64_t{8});
  reference_chain->emplace_nf<nf::Monitor>();
  runtime::RunStats reference_stats;
  const std::vector<net::Packet> reference =
      run_in_process(*reference_chain, workload, &reference_stats);
  ASSERT_GT(reference_stats.drops, 0u)
      << "the flood must actually trip the blacklist in-process";

  auto live_chain = std::make_unique<runtime::ServiceChain>("dos_inspection");
  live_chain->emplace_nf<nf::DosPrevention>(std::uint64_t{8});
  live_chain->emplace_nf<nf::Monitor>();
  runtime::ChainRunner runner{*live_chain, speedybox_run_config()};
  const LiveResult live = run_live(runner, workload, IngestProto::kUdp);

  EXPECT_EQ(live.ingest.socket_drops, 0u);
  EXPECT_EQ(live.stats.drops, reference_stats.drops);
  EXPECT_EQ(live.stats.packets, reference_stats.packets);
  expect_byte_identical(live.outputs, reference);
}

TEST(LiveIngest, ConservationHoldsWithGarbageOnTheWire) {
  // sent == admitted + shed + parse_errors + socket_drops, with the gate
  // off: admitted = the packets the executor ran, shed = 0, and garbage
  // lands in parse_errors instead of crashing anything.
  const trace::Workload workload = small_datacenter_workload(31337, false);
  const auto chain = chain1_gateway();
  runtime::ChainRunner runner{*chain, speedybox_run_config()};

  IngestConfig config;
  config.idle_timeout_ms = 300;
  IngestServer server{config};

  const LoadgenReport report =
      replay_workload(workload, loadgen_to(server.udp_port())).front();
  ASSERT_EQ(report.send_errors, 0u);
  // Interleave hostile datagrams: runts, noise, truncated-L4.
  Fd evil = make_udp_sender("127.0.0.1", server.udp_port());
  const std::vector<std::vector<std::uint8_t>> garbage = {
      {0xDE, 0xAD},                         // runt
      std::vector<std::uint8_t>(64, 0xFF),  // noise, bad EtherType
      std::vector<std::uint8_t>(200, 0x00),
  };
  for (const auto& frame : garbage) {
    ASSERT_TRUE(send_all(evil.get(), frame));
  }
  const IngestStats ingest = server.serve(runner);
  const runtime::RunStats& stats = runner.drain(nullptr);

  EXPECT_EQ(ingest.parse_errors, garbage.size());
  EXPECT_EQ(ingest.rx_frames, report.sent);
  EXPECT_EQ(ingest.socket_drops, 0u);
  // The identity the CI smoke enforces end to end, from the sender's, the
  // server's and the executor's counts. RunStats.packets counts every
  // processed packet (drops are a subset).
  EXPECT_EQ(report.sent + garbage.size(),
            stats.packets + ingest.parse_errors + ingest.socket_drops);
}

/// Threaded executors: every wire frame must come out the other end.
void expect_threaded_executor_conserves(runtime::Executor& executor) {
  const trace::Workload workload = small_datacenter_workload(4242, false);
  IngestConfig config;
  config.idle_timeout_ms = 300;
  IngestServer server{config};
  KeepingExecutor keeping{executor};

  const LoadgenReport report =
      replay_workload(workload, loadgen_to(server.udp_port())).front();
  ASSERT_EQ(report.send_errors, 0u);
  const IngestStats ingest = server.serve(keeping);
  std::vector<net::Packet> outputs;
  const runtime::RunStats& stats = keeping.drain(&outputs);

  EXPECT_EQ(ingest.rx_frames, report.sent);
  EXPECT_EQ(ingest.socket_drops, 0u);
  EXPECT_EQ(stats.packets, report.sent);
  EXPECT_EQ(stats.drops, 0u);  // chain1's ACL is empty
  EXPECT_EQ(outputs.size(), report.sent);
}

TEST(LiveIngest, ShardedStreamPushConservesPackets) {
  // The ingest thread doubles as the dispatcher of a 2-shard runtime.
  const auto chain = chain1_gateway();
  runtime::ShardedRuntime sharded{*chain, 2, speedybox_run_config()};
  expect_threaded_executor_conserves(sharded);
}

TEST(LiveIngest, PipelineStreamsAndConservesPackets) {
  // The ingest thread doubles as the pipeline's manager: packets flow to
  // the NF cores while the sockets are still being read.
  const auto chain = chain1_gateway();
  runtime::SpeedyBoxPipeline pipeline{*chain, speedybox_run_config()};
  expect_threaded_executor_conserves(pipeline);
}

TEST(LiveIngest, BatchedUdpWithGarbageIsByteIdenticalAndConserving) {
  // The batched UDP receive must keep bytes, ordering and the conservation
  // ledger of the in-process drive, with garbage mixed into the batches.
  const trace::Workload workload = small_datacenter_workload(90125, false);
  const auto reference_chain = chain1_gateway();
  const std::vector<net::Packet> reference =
      run_in_process(*reference_chain, workload, nullptr);

  const auto live_chain = chain1_gateway();
  runtime::ChainRunner runner{*live_chain, speedybox_run_config()};
  IngestConfig config;
  config.idle_timeout_ms = 300;
  IngestServer server{config};
  KeepingExecutor keeping{runner};

  const LoadgenReport report =
      replay_workload(workload, loadgen_to(server.udp_port())).front();
  ASSERT_EQ(report.send_errors, 0u);
  Fd evil = make_udp_sender("127.0.0.1", server.udp_port());
  const std::vector<std::uint8_t> runt = {0xDE, 0xAD};
  ASSERT_TRUE(send_all(evil.get(), runt));

  const IngestStats ingest = server.serve(keeping);
  std::vector<net::Packet> outputs;
  const runtime::RunStats& stats = keeping.drain(&outputs);

  EXPECT_EQ(ingest.rx_frames, report.sent);
  EXPECT_EQ(ingest.parse_errors, 1u);
  EXPECT_EQ(ingest.socket_drops, 0u);
  EXPECT_EQ(report.sent + 1,
            stats.packets + ingest.parse_errors + ingest.socket_drops);
  expect_byte_identical(outputs, reference);
}

TEST(LiveIngest, UdpFramesUpToMaxFrameBytesArriveWhole) {
  // Every frame decode_frame accepts must reach the chain whole over UDP,
  // jumbo-and-beyond sizes included; one byte more is oversize.
  runtime::ServiceChain chain;
  chain.emplace_nf<nf::Monitor>();
  runtime::ChainRunner runner{chain, {platform::PlatformKind::kBess, false}};
  IngestConfig config;
  config.idle_timeout_ms = 300;
  IngestServer server{config};
  KeepingExecutor keeping{runner};

  constexpr std::size_t kHeaders = 14 + 20 + 8;  // Ethernet, IPv4, UDP
  std::vector<net::Packet> sent;
  Fd sender = make_udp_sender("127.0.0.1", server.udp_port());
  std::uint32_t flow = 0;
  for (const std::size_t size :
       {std::size_t{9216}, std::size_t{9300}, kMaxFrameBytes,
        kMaxFrameBytes + 1}) {
    net::Packet packet = net::make_udp_packet(
        speedybox::testing::tuple_n(flow++), std::string(size - kHeaders, 'x'));
    ASSERT_EQ(packet.size(), size);
    ASSERT_TRUE(send_all(sender.get(), packet.bytes()));
    if (size <= kMaxFrameBytes) sent.push_back(std::move(packet));
  }

  const IngestStats ingest = server.serve(keeping);
  std::vector<net::Packet> outputs;
  keeping.drain(&outputs);

  EXPECT_EQ(ingest.socket_drops, 0u);
  EXPECT_EQ(ingest.rx_frames, sent.size());
  EXPECT_EQ(ingest.parse_errors, 1u) << "the oversize frame";
  expect_byte_identical(outputs, sent);
}

TEST(LiveIngest, PoisonedTcpStreamIsKilledNotCrashed) {
  const auto chain = chain2_inspection();
  runtime::ChainRunner runner{*chain, speedybox_run_config()};
  IngestConfig config;
  config.proto = IngestProto::kTcp;
  config.idle_timeout_ms = 300;
  IngestServer server{config};

  std::thread sender([&] {
    Fd conn = make_tcp_sender("127.0.0.1", server.tcp_port());
    // A hostile length prefix claiming a 4 GB frame.
    const std::vector<std::uint8_t> evil = {0xFF, 0xFF, 0xFF, 0xFF, 0x00};
    ASSERT_TRUE(send_all(conn.get(), evil));
  });
  const IngestStats ingest = server.serve(runner);
  sender.join();
  runner.drain(nullptr);

  EXPECT_EQ(ingest.poisoned_streams, 1u);
  EXPECT_EQ(ingest.rx_frames, 0u);
}

}  // namespace
}  // namespace speedybox::io
