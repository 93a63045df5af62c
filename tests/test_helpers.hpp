// Shared helpers for the SpeedyBox test suite.
#pragma once

#include <cstdint>
#include <string_view>

#include "net/five_tuple.hpp"
#include "net/packet.hpp"
#include "net/byte_order.hpp"
#include "net/packet_builder.hpp"
#include "runtime/runner.hpp"

namespace speedybox::testing {

/// A distinct, deterministic five-tuple per id.
inline net::FiveTuple tuple_n(std::uint32_t id,
                              std::uint16_t dst_port = 80) {
  net::FiveTuple tuple;
  tuple.src_ip = net::Ipv4Addr{0xC0A80000u + id + 2};  // 192.168.x.x
  tuple.dst_ip = net::Ipv4Addr{10, 1, 0, 1};
  tuple.src_port = static_cast<std::uint16_t>(20000 + (id % 40000));
  tuple.dst_port = dst_port;
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  return tuple;
}

inline net::Packet tcp_packet(std::uint32_t flow_id,
                              std::string_view payload = "hello",
                              std::uint8_t flags = net::kTcpFlagAck) {
  return net::make_tcp_packet(tuple_n(flow_id), payload, flags);
}

/// `config` with the platform cycle model on (RunConfig::cycle_model), for
/// tests that assert modeled values.
inline runtime::RunConfig modeled(runtime::RunConfig config) {
  config.cycle_model = true;
  return config;
}

/// Byte-for-byte wire equality (metadata ignored).
inline bool same_bytes(const net::Packet& a, const net::Packet& b) {
  const auto ba = a.bytes();
  const auto bb = b.bytes();
  return ba.size() == bb.size() &&
         std::equal(ba.begin(), ba.end(), bb.begin());
}

}  // namespace speedybox::testing
