// The transport five-tuple: flow identity for classification, NAT tables and
// FID generation. Addresses/ports are kept in host byte order here; raw
// packet bytes are network order (see byte_order.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "util/hash.hpp"

namespace speedybox::net {

/// IP protocol numbers we care about.
enum class IpProto : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
  kAh = 51,  // IPSec Authentication Header (used by the VPN-style encap)
};

/// IPv4 address, host byte order. Value type.
struct Ipv4Addr {
  std::uint32_t value = 0;

  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t v) : value(v) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d)
      : value((static_cast<std::uint32_t>(a) << 24) |
              (static_cast<std::uint32_t>(b) << 16) |
              (static_cast<std::uint32_t>(c) << 8) | d) {}

  friend constexpr bool operator==(Ipv4Addr, Ipv4Addr) = default;
  friend constexpr auto operator<=>(Ipv4Addr, Ipv4Addr) = default;

  std::string to_string() const {
    return std::to_string(value >> 24) + "." +
           std::to_string((value >> 16) & 0xFF) + "." +
           std::to_string((value >> 8) & 0xFF) + "." +
           std::to_string(value & 0xFF);
  }
};

struct FiveTuple {
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = static_cast<std::uint8_t>(IpProto::kTcp);

  friend constexpr bool operator==(const FiveTuple&,
                                   const FiveTuple&) = default;

  /// 64-bit hash over all five fields: the key hash of every tuple-keyed
  /// flow table, the classifier's included.
  constexpr std::uint64_t hash() const noexcept {
    std::uint64_t h = util::mix64(src_ip.value);
    h = util::hash_combine(h, dst_ip.value);
    h = util::hash_combine(h, (static_cast<std::uint64_t>(src_port) << 16) |
                                  dst_port);
    h = util::hash_combine(h, proto);
    return h;
  }

  /// Direction-invariant hash: both directions of a connection produce the
  /// same value, so an RSS-style dispatcher keyed on it gives a connection
  /// single-shard affinity (request and reply land on the same replica).
  /// Endpoints are ordered canonically by (ip, port) before mixing.
  constexpr std::uint64_t symmetric_hash() const noexcept {
    const std::uint64_t a =
        (static_cast<std::uint64_t>(src_ip.value) << 16) | src_port;
    const std::uint64_t b =
        (static_cast<std::uint64_t>(dst_ip.value) << 16) | dst_port;
    std::uint64_t h = util::mix64(a < b ? a : b);
    h = util::hash_combine(h, a < b ? b : a);
    return util::hash_combine(h, proto);
  }

  /// Reverse direction tuple (used by NAT return-path mapping).
  constexpr FiveTuple reversed() const noexcept {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, proto};
  }

  std::string to_string() const {
    return src_ip.to_string() + ":" + std::to_string(src_port) + " -> " +
           dst_ip.to_string() + ":" + std::to_string(dst_port) +
           " proto=" + std::to_string(proto);
  }
};

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(t.hash());
  }
};

}  // namespace speedybox::net
