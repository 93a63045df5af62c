// The pipeline's manager classifies every admitted packet once, even one it
// holds behind its flow's FIN/RST and routes again after the teardown.
//
// An NF that keeps every descriptor on its core until the test opens it
// makes the holds deterministic: each reusing packet is submitted while
// the FIN before it is still in flight, once behind a flow that is still
// recording and once behind a single-packet FIN flow. The classifier's
// counts must then add up to the packets, and match ChainRunner's on the
// same input (tools/run_sanitizers.sh runs this under TSan).
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nf/network_function.hpp"
#include "runtime/runner.hpp"
#include "runtime/speedybox_pipeline.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

using testing::tcp_packet;

/// Holds each packet on its core until `open` is set.
class GateNf : public nf::NetworkFunction {
 public:
  GateNf() : NetworkFunction("gate") {}

  void process(net::Packet&, core::SpeedyBoxContext*) override {
    count_packet();
    while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  std::atomic<bool> open{false};
};

/// Flow 1 records while its FIN and a packet reusing its tuple arrive;
/// flow 2 is a single-packet FIN flow whose tuple is reused behind it.
std::vector<net::Packet> reuse_packets() {
  const std::uint8_t fin = net::kTcpFlagFin | net::kTcpFlagAck;
  std::vector<net::Packet> packets;
  packets.push_back(tcp_packet(1));
  packets.push_back(tcp_packet(2, "bye", fin));
  packets.push_back(tcp_packet(1, "bye", fin));
  packets.push_back(tcp_packet(1, "again"));
  packets.push_back(tcp_packet(2, "again"));
  return packets;
}

TEST(PipelineHold, PacketHeldBehindFinIsClassifiedOnce) {
  const RunConfig config{platform::PlatformKind::kOnvm, true};
  ServiceChain reference_chain;
  reference_chain.emplace_nf<GateNf>().open = true;
  ChainRunner runner{reference_chain, config};
  std::vector<net::Packet> reference = reuse_packets();
  runner.submit(reference, /*keep=*/false);
  const core::PacketClassifier& expected = reference_chain.classifier();
  ASSERT_EQ(expected.initial_count(), 4u);
  ASSERT_EQ(expected.subsequent_count(), 1u);

  ServiceChain chain;
  GateNf& gate = chain.emplace_nf<GateNf>();
  SpeedyBoxPipeline pipeline{chain, config};
  // One packet a submit: each is routed before the next arrives, and none
  // completes before the gate opens.
  for (net::Packet& packet : reuse_packets()) {
    pipeline.submit({&packet, 1}, /*keep=*/false);
  }
  gate.open = true;
  const RunStats& stats = pipeline.drain(nullptr);

  const core::PacketClassifier& classifier = chain.classifier();
  EXPECT_EQ(stats.packets, 5u);
  EXPECT_EQ(classifier.initial_count() + classifier.subsequent_count(),
            stats.packets);
  EXPECT_EQ(classifier.initial_count(), expected.initial_count());
  EXPECT_EQ(classifier.subsequent_count(), expected.subsequent_count());
  // Each flow's first packet recorded; the FIN took the fast path.
  EXPECT_EQ(gate.packets_processed(), 4u);
  EXPECT_EQ(classifier.active_flows(), 2u);
}

}  // namespace
}  // namespace speedybox::runtime
