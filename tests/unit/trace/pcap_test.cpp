#include "trace/pcap.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "nf/monitor.hpp"
#include "runtime/runner.hpp"
#include "test_helpers.hpp"

namespace speedybox::trace {
namespace {

using speedybox::testing::same_bytes;
using speedybox::testing::tuple_n;

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("speedybox_pcap_test_" +
              std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name() +
              ".pcap"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(PcapTest, RoundTripPreservesBytes) {
  std::vector<net::Packet> packets;
  packets.push_back(net::make_tcp_packet(tuple_n(1), "first"));
  packets.push_back(net::make_udp_packet(tuple_n(2), "second packet"));
  packets.push_back(net::make_tcp_packet(tuple_n(3), ""));

  write_pcap(path_, packets);
  const auto loaded = read_pcap(path_);
  ASSERT_EQ(loaded.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_TRUE(same_bytes(loaded[i], packets[i])) << "packet " << i;
  }
}

TEST_F(PcapTest, WorkloadExportMatchesMaterialization) {
  const Workload workload = make_uniform_workload(5, 4, 48);
  write_pcap(path_, workload);
  const auto loaded = read_pcap(path_);
  ASSERT_EQ(loaded.size(), workload.packet_count());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_TRUE(same_bytes(loaded[i], workload.materialize(i)));
  }
}

TEST_F(PcapTest, FileHasStandardMagicAndLinkType) {
  write_pcap(path_, std::vector<net::Packet>{
                        net::make_tcp_packet(tuple_n(4), "x")});
  std::ifstream file{path_, std::ios::binary};
  std::uint32_t magic = 0;
  file.read(reinterpret_cast<char*>(&magic), 4);
  EXPECT_EQ(magic, 0xA1B2C3D4u);
  file.seekg(20);
  std::uint32_t network = 0;
  file.read(reinterpret_cast<char*>(&network), 4);
  EXPECT_EQ(network, 1u) << "Ethernet link type";
}

TEST_F(PcapTest, EmptyCaptureRoundTrips) {
  write_pcap(path_, std::vector<net::Packet>{});
  EXPECT_TRUE(read_pcap(path_).empty());
}

TEST_F(PcapTest, RejectsMissingFile) {
  EXPECT_THROW(read_pcap("/nonexistent/definitely_not_here.pcap"),
               std::runtime_error);
}

TEST_F(PcapTest, RejectsBadMagic) {
  std::ofstream file{path_, std::ios::binary};
  const std::uint32_t bogus = 0xDEADBEEF;
  file.write(reinterpret_cast<const char*>(&bogus), 4);
  std::vector<char> padding(20, 0);
  file.write(padding.data(), 20);
  file.close();
  EXPECT_THROW(read_pcap(path_), std::runtime_error);
}

TEST_F(PcapTest, RejectsTruncatedRecord) {
  write_pcap(path_, std::vector<net::Packet>{
                        net::make_tcp_packet(tuple_n(5), "whole")});
  // Chop the last 10 bytes off.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 10);
  EXPECT_THROW(read_pcap(path_), std::runtime_error);
}

TEST_F(PcapTest, PcapDrivesAChainRun) {
  const Workload workload = make_uniform_workload(6, 5, 40);
  write_pcap(path_, workload);
  const auto packets = read_pcap(path_);

  runtime::ServiceChain chain;
  auto& monitor = chain.emplace_nf<nf::Monitor>();
  runtime::ChainRunner runner{
      chain, {platform::PlatformKind::kBess, /*speedybox=*/true}};
  const auto& stats = runner.run_packets(packets);
  EXPECT_EQ(stats.packets, workload.packet_count());
  EXPECT_EQ(monitor.total_packets(), workload.packet_count());
  EXPECT_EQ(chain.classifier().initial_count(), 6u)
      << "the capture's six flows";
}

}  // namespace
}  // namespace speedybox::trace
