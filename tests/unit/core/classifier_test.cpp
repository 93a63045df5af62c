#include "core/classifier.hpp"

#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "net/fields.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::core {
namespace {

using speedybox::testing::tuple_n;

TEST(Classifier, FirstPacketIsInitial) {
  PacketClassifier classifier;
  net::Packet packet = net::make_tcp_packet(tuple_n(1), "x");
  const auto result = classifier.classify(packet);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->path, PacketClassifier::Path::kInitial);
  EXPECT_TRUE(packet.is_initial());
  EXPECT_TRUE(packet.has_fid());
  EXPECT_EQ(packet.fid(), result->fid);
}

TEST(Classifier, SecondPacketIsSubsequentWithSameFid) {
  PacketClassifier classifier;
  net::Packet first = net::make_tcp_packet(tuple_n(2), "a");
  net::Packet second = net::make_tcp_packet(tuple_n(2), "b");
  const auto r1 = classifier.classify(first);
  const auto r2 = classifier.classify(second);
  EXPECT_EQ(r2->path, PacketClassifier::Path::kSubsequent);
  EXPECT_EQ(r1->fid, r2->fid);
  EXPECT_FALSE(second.is_initial());
}

TEST(Classifier, DistinctFlowsGetDistinctFids) {
  PacketClassifier classifier;
  net::Packet a = net::make_tcp_packet(tuple_n(3), "x");
  net::Packet b = net::make_tcp_packet(tuple_n(4), "x");
  const auto ra = classifier.classify(a);
  const auto rb = classifier.classify(b);
  EXPECT_NE(ra->fid, rb->fid);
}

TEST(Classifier, FidIs20Bits) {
  PacketClassifier classifier;
  for (std::uint32_t i = 0; i < 100; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(i), "x");
    const auto result = classifier.classify(packet);
    EXPECT_LE(result->fid, net::kFidMask);
  }
}

TEST(Classifier, MalformedPacketRejected) {
  PacketClassifier classifier;
  net::Packet garbage{std::vector<std::uint8_t>(20, 0xAA)};
  EXPECT_FALSE(classifier.classify(garbage).has_value());
}

TEST(Classifier, FinMarksTeardown) {
  PacketClassifier classifier;
  net::Packet open = net::make_tcp_packet(tuple_n(5), "x");
  classifier.classify(open);
  net::Packet fin = net::make_tcp_packet(
      tuple_n(5), "", net::kTcpFlagFin | net::kTcpFlagAck);
  const auto result = classifier.classify(fin);
  EXPECT_TRUE(result->teardown);
  EXPECT_EQ(result->path, PacketClassifier::Path::kSubsequent);
}

TEST(Classifier, RstMarksTeardown) {
  PacketClassifier classifier;
  net::Packet rst = net::make_tcp_packet(tuple_n(6), "", net::kTcpFlagRst);
  const auto result = classifier.classify(rst);
  EXPECT_TRUE(result->teardown);
}

TEST(Classifier, ReleaseFlowAllowsFreshInitial) {
  PacketClassifier classifier;
  net::Packet first = net::make_tcp_packet(tuple_n(7), "x");
  const auto r1 = classifier.classify(first);
  classifier.release_flow(r1->fid);
  EXPECT_EQ(classifier.active_flows(), 0u);

  net::Packet again = net::make_tcp_packet(tuple_n(7), "x");
  const auto r2 = classifier.classify(again);
  EXPECT_EQ(r2->path, PacketClassifier::Path::kInitial);
}

TEST(Classifier, CountsInitialAndSubsequent) {
  PacketClassifier classifier;
  for (int flow = 0; flow < 3; ++flow) {
    for (int pkt = 0; pkt < 4; ++pkt) {
      net::Packet packet =
          net::make_tcp_packet(tuple_n(static_cast<std::uint32_t>(flow)), "x");
      classifier.classify(packet);
    }
  }
  EXPECT_EQ(classifier.initial_count(), 3u);
  EXPECT_EQ(classifier.subsequent_count(), 9u);
  EXPECT_EQ(classifier.active_flows(), 3u);
}

TEST(Classifier, ManyFlowsNoDuplicateFids) {
  PacketClassifier classifier;
  std::unordered_set<std::uint32_t> fids;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(i), "x");
    const auto result = classifier.classify(packet);
    EXPECT_TRUE(fids.insert(result->fid).second)
        << "duplicate FID " << result->fid << " at flow " << i;
  }
}

TEST(Classifier, UdpFlowsClassified) {
  PacketClassifier classifier;
  net::FiveTuple tuple = tuple_n(9);
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  net::Packet a = net::make_udp_packet(tuple, "x");
  net::Packet b = net::make_udp_packet(tuple, "y");
  const auto ra = classifier.classify(a);
  const auto rb = classifier.classify(b);
  EXPECT_EQ(ra->path, PacketClassifier::Path::kInitial);
  EXPECT_EQ(rb->path, PacketClassifier::Path::kSubsequent);
  EXPECT_FALSE(rb->teardown);  // no TCP flags on UDP
}

TEST(Classifier, FidsAreDenseAndTheLastFreedIsReusedFirst) {
  PacketClassifier classifier;
  std::vector<std::uint32_t> fids;
  for (std::uint32_t i = 0; i < 4; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(i), "x");
    fids.push_back(classifier.classify(packet)->fid);
  }
  EXPECT_EQ(fids, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  classifier.release_flow(1);
  classifier.release_flow(2);
  classifier.release_flow(2);  // not live any more: ignored
  net::Packet next = net::make_tcp_packet(tuple_n(10), "x");
  EXPECT_EQ(classifier.classify(next)->fid, 2u);
  net::Packet after = net::make_tcp_packet(tuple_n(11), "x");
  EXPECT_EQ(classifier.classify(after)->fid, 1u);
  EXPECT_EQ(classifier.active_flows(), 4u);
}

TEST(Classifier, RefusesANewFlowWhileEveryFidIsLive) {
  PacketClassifier classifier;
  // One packet, re-addressed per flow: the pre-hashed overload takes the
  // tuple read back from the bytes, so 2^20 flows need no 2^20 packets.
  net::Packet packet = net::make_tcp_packet(tuple_n(0), "");
  const auto parsed = net::parse_packet(packet);
  ASSERT_TRUE(parsed.has_value());
  const auto classify_source = [&](std::uint32_t source_ip) {
    net::set_field(packet, *parsed, net::HeaderField::kSrcIp, source_ip);
    return classifier.classify(
        packet, HashedTuple::of(net::extract_five_tuple(packet, *parsed)),
        *parsed);
  };

  constexpr std::uint32_t kFids = net::kFidMask + 1;
  std::uint32_t refused = 0;
  for (std::uint32_t source = 0; source < kFids; ++source) {
    if (!classify_source(source)) ++refused;
  }
  ASSERT_EQ(refused, 0u);
  EXPECT_EQ(classifier.active_flows(), kFids);
  EXPECT_EQ(classifier.initial_count(), kFids);

  // Every FID is live: a new flow is refused, a known one still classifies.
  EXPECT_FALSE(classify_source(kFids).has_value());
  EXPECT_EQ(classifier.initial_count(), kFids);
  const auto known = classify_source(12345);
  ASSERT_TRUE(known.has_value());
  EXPECT_EQ(known->path, PacketClassifier::Path::kSubsequent);
  EXPECT_FALSE(classifier.adopt_flow(tuple_n(1), 0).has_value());

  // Closing one flow frees its FID for the next new flow.
  classifier.release_flow(known->fid);
  const auto admitted = classify_source(kFids);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->path, PacketClassifier::Path::kInitial);
  EXPECT_EQ(admitted->fid, known->fid);
}

}  // namespace
}  // namespace speedybox::core
