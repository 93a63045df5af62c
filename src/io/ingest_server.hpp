// Event-driven UDP/TCP ingestion front-end (DESIGN.md §11): real wire
// bytes in, net::Packet descriptors out, batches staged and submitted to a
// runtime::Executor.
//
//   epoll (level-triggered, io::EventLoop)
//     UDP socket    one datagram = one Ethernet frame; drained with
//                   batched recvmmsg() up to rx_budget frames per wakeup
//                   (fairness against TCP)
//     TCP listener  accepts; each connection carries 4-byte-BE
//                   length-prefixed frames (io::StreamFramer reassembles)
//   decode_frame() validates every frame (malformed → parse_errors, never
//                   a crash — see frame.hpp), stages survivors into a
//                   batch of batch_size; each batch passes the optional
//                   host gate and goes to Executor::submit
//   idle timeout   serve() returns after idle_timeout_ms with no traffic
//                   (partial batches flush on every idle wakeup first, so
//                   trickle traffic is never held hostage to the batch)
//
// Backpressure contract with the overload controller: the front-end never
// drops a decoded frame itself. Shedding is the executor's ingress gate
// (DESIGN.md §9) — a sharded executor's dispatcher sheds on ring
// watermarks, a runner's virtual queue sheds on its own — so the
// conservation identity the closed-loop smoke checks is
//   sent == admitted + shed + parse_errors + socket_drops
// with socket_drops the kernel's receive-queue overflow count (the only
// loss the process cannot refuse: the wire outran the event loop).
//
// Threads: serve() blocks the calling thread (which thereby becomes the
// dispatcher of a sharded executor and the pipeline's manager). stop() is
// safe from any thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/event_loop.hpp"
#include "io/frame.hpp"
#include "io/socket.hpp"
#include "net/packet.hpp"
#include "runtime/executor.hpp"
#include "telemetry/metrics.hpp"

namespace speedybox::io {

enum class IngestProto : std::uint8_t { kUdp, kTcp, kBoth };

const char* ingest_proto_name(IngestProto proto) noexcept;

struct IngestConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port(s) are reported by udp_port()/tcp_port().
  std::uint16_t port = 0;
  IngestProto proto = IngestProto::kUdp;
  /// Max frames drained from one socket per epoll wakeup. Bounds the time
  /// one hot socket can hold the loop (and with it the staging latency of
  /// every other socket's frames). UDP reads up to 64 of them per
  /// recvmmsg() call.
  std::size_t rx_budget = 64;
  /// serve() returns after this long without receiving anything.
  int idle_timeout_ms = 1000;
  /// Frames staged per Executor::submit (the rx burst size).
  std::size_t batch_size = 32;
  /// Kernel receive buffer for the UDP socket (0 = system default). The
  /// deeper this is, the burstier the wire can be before socket_drops.
  int rcvbuf_bytes = 1 << 22;
};

/// Counters of one serve() run (also mirrored into telemetry when
/// attached; see ShardMetrics rx_*).
struct IngestStats {
  std::uint64_t rx_bytes = 0;      // wire bytes read (UDP payload + TCP
                                   // stream bytes, prefixes included)
  std::uint64_t rx_frames = 0;     // frames decoded successfully
  std::uint64_t rx_batches = 0;    // staged batches flushed
  std::uint64_t parse_errors = 0;  // frames decode_frame rejected
  std::uint64_t socket_drops = 0;  // kernel receive-queue overflow (UDP)
  std::uint64_t tcp_connections = 0;
  std::uint64_t poisoned_streams = 0;  // TCP conns killed by a bad prefix
  /// Busy window: serve() entry to the last observed wire activity, the
  /// idle-timeout tail excluded. rx_frames / drive_seconds is the ingest
  /// rate bench_ingest gates on.
  double drive_seconds = 0.0;
  /// rx_frames + parse_errors: everything that reached the process.
  std::uint64_t frames_seen() const noexcept {
    return rx_frames + parse_errors;
  }
};

class IngestServer {
 public:
  /// Binds the socket(s) eagerly — construction failure is loud
  /// (std::system_error), and the bound ports are known before serve().
  explicit IngestServer(IngestConfig config);
  ~IngestServer();
  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  std::uint16_t udp_port() const noexcept { return udp_port_; }
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Create this server's metric cell in `registry` (null detaches). Must
  /// be called before serve(). Counters land under "<label>" (rx_bytes,
  /// rx_frames, rx_batches, parse_errors, socket_drops + ingest_cycles).
  void attach_telemetry(telemetry::Registry* registry,
                        const std::string& label);

  /// A host-boundary admission hook (multi-tenant hosting, DESIGN.md §14),
  /// called per staged packet, in arrival order, before the hand-off:
  /// false sheds the packet, which never reaches the executor. It runs at a
  /// packet boundary of a sharded executor's dispatcher, so it may also
  /// apply control-plane actions (e.g. a pending reshard).
  using Gate = std::function<bool(const net::Packet&)>;

  /// Run the event loop until stop() or the idle timeout, submitting each
  /// staged batch to `executor` (without keep) once `gate`, when set, has
  /// compacted its shed packets out. Returns the run's counters (the final
  /// socket_drops read included). One-shot. Does NOT drain the executor —
  /// the caller owns its lifecycle.
  IngestStats serve(runtime::Executor& executor, Gate gate = {});

  /// End serve() from any thread.
  void stop() noexcept { loop_.stop(); }

  const IngestStats& stats() const noexcept { return stats_; }

 private:
  struct TcpConn {
    Fd fd;
    StreamFramer framer;
  };

  void drain_udp();
  void accept_tcp();
  void drain_tcp(TcpConn& conn, std::uint32_t events);
  /// Decode one frame; stage on success, count on failure.
  void ingest_frame(std::span<const std::uint8_t> bytes);
  void flush_staged();
  /// Copy stats_ into the metric cell: at each flush and serve()'s end.
  void publish();
  void close_conn(int fd);

  IngestConfig config_;
  EventLoop loop_;
  Fd udp_;
  Fd tcp_listener_;
  std::uint16_t udp_port_ = 0;
  std::uint16_t tcp_port_ = 0;
  std::vector<std::unique_ptr<TcpConn>> conns_;
  // Valid inside serve().
  runtime::Executor* executor_ = nullptr;
  Gate gate_;
  std::vector<net::Packet> staged_;
  /// Receive stamps of the staged frames, kept only with telemetry attached.
  std::vector<std::uint64_t> staged_recv_cycle_;
  /// TCP read scratch: one stream chunk.
  std::vector<std::uint8_t> recv_buffer_;
  /// recvmmsg scratch: datagram slot i at offset i * kDatagramSlotBytes,
  /// plus the per-datagram byte counts the kernel fills in.
  std::vector<std::uint8_t> mmsg_buffer_;
  std::vector<std::size_t> mmsg_lengths_;
  IngestStats stats_;
  telemetry::ShardMetrics* metrics_ = nullptr;
  /// Baseline of the kernel's cumulative drop counter at serve() entry
  /// (the socket may be reused across runs in tests).
  std::uint64_t drop_baseline_ = 0;
  /// Latest cumulative SO_RXQ_OVFL value seen in ancillary data — the
  /// fallback when the /proc/net/udp row is unreadable at serve() exit.
  std::uint64_t cmsg_drops_ = 0;
  bool served_ = false;
};

}  // namespace speedybox::io
