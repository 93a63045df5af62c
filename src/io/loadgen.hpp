// Loopback load generator — the wire-side counterpart of the trace::
// workload generators. Replays a workload's materialized frames over real
// UDP or TCP sockets at a target rate, so `chainsim --listen` (and the CI
// closed-loop smokes) exercise the full socket → epoll → parse → chain
// path with the exact same packets the in-process drive would use.
//
// Every destination port gets the whole frame sequence on its own socket,
// concurrently: the calling thread sends to the first port and one thread
// each to the rest. One port feeds one live chain, several feed the
// tenants of a `chainsim --tenancy --listen` host.
//
// UDP: one datagram per frame (the natural framing). TCP: frames carry
// the 4-byte length prefix of io::append_framed. Pacing is absolute-
// schedule (frame i is due at start + i/rate), so a slow send does not
// push every later frame late.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/ingest_server.hpp"
#include "trace/workload.hpp"

namespace speedybox::io {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  /// One destination per port.
  std::vector<std::uint16_t> ports;
  /// kUdp or kTcp (a sender speaks exactly one; kBoth is a config error).
  IngestProto proto = IngestProto::kUdp;
  /// Target send rate in packets/s, 0 = unpaced: one entry per port, or one
  /// entry for every port; empty = unpaced.
  std::vector<double> rates_pps;
  /// Replay the frame sequence this many times back to back.
  std::size_t repeat = 1;
};

/// One destination's outcome.
struct LoadgenReport {
  std::uint16_t port = 0;
  std::uint64_t sent = 0;         // frames handed to the kernel
  std::uint64_t bytes = 0;        // wire bytes sent (TCP prefixes included)
  std::uint64_t send_errors = 0;  // send() failures (frame NOT counted sent)
  double elapsed_s = 0.0;
  double achieved_pps = 0.0;
  /// Non-empty when this destination's sender died (e.g. connect refused);
  /// the other destinations' sends are unaffected.
  std::string error;
};

/// Materialize and replay `workload` in schedule order to every port
/// concurrently, each paced on its own schedule. Returns one report per
/// port, in port order. Throws std::invalid_argument for a config no
/// sender can run: no port, kBoth, or a rate list whose length is neither
/// 1 nor the port count.
std::vector<LoadgenReport> replay_workload(const trace::Workload& workload,
                                           const LoadgenConfig& config);

}  // namespace speedybox::io
