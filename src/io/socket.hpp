// Thin RAII layer over the POSIX sockets the ingestion front-end uses:
// non-blocking loopback UDP receivers with kernel drop accounting
// (SO_RXQ_OVFL + /proc/net/udp), TCP listeners/connections, and the
// blocking sender sockets the load generator drives. Everything binds to
// an explicit address (default loopback); port 0 requests an ephemeral
// port and the bound port is reported back — the pattern every test and
// the CI smoke rely on to avoid port collisions.
//
// All functions throw std::system_error on syscall failure (socket setup
// is control-plane: failing loudly beats limping without a socket); the
// receive calls report would-block/EOF through their results instead of
// throwing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace speedybox::io {

/// Move-only owner of a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  /// Close now (idempotent).
  void reset() noexcept;
  /// Give up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

void set_nonblocking(int fd);

// -- Receiver side ----------------------------------------------------------

/// Non-blocking UDP socket bound to `address:port` (port 0 = ephemeral)
/// with SO_RXQ_OVFL drop accounting enabled and the receive buffer raised
/// to `rcvbuf_bytes` (0 keeps the system default). `bound_port` receives
/// the actual port.
Fd make_udp_receiver(const std::string& address, std::uint16_t port,
                     int rcvbuf_bytes, std::uint16_t* bound_port);

/// Non-blocking listening TCP socket (port 0 = ephemeral).
Fd make_tcp_listener(const std::string& address, std::uint16_t port,
                     std::uint16_t* bound_port, int backlog = 16);

/// Accept one connection off a non-blocking listener; the connection comes
/// back non-blocking too. Invalid Fd when no connection is pending.
Fd accept_connection(int listener_fd);

/// One non-blocking stream read: the bytes read, 0 on orderly EOF, -1 when
/// nothing is available right now.
long recv_some(int fd, std::span<std::uint8_t> buffer);

/// Most datagrams one recv_many() call receives.
inline constexpr std::size_t kRecvManyMax = 64;

/// Result of one recv_many() batch.
struct RecvManyResult {
  std::size_t messages = 0;       // datagrams filled into lengths[0..n)
  /// Latest cumulative SO_RXQ_OVFL counter seen in the batch's ancillary
  /// data (UDP receivers only).
  std::uint32_t rxq_dropped = 0;
  bool has_drop_count = false;
};

/// Batched non-blocking datagram receive via recvmmsg(): up to
/// min(`lengths.size()`, kRecvManyMax) datagrams in ONE syscall, datagram i
/// landing at buffer.subspan(i * stride, stride) with its byte count in
/// lengths[i]. messages = 0 means nothing was available. SO_RXQ_OVFL
/// ancillary data is harvested per message — the last datagram's
/// cumulative counter wins, matching the kernel's monotonic semantics.
RecvManyResult recv_many(int fd, std::span<std::uint8_t> buffer,
                         std::size_t stride, std::span<std::size_t> lengths);

/// Authoritative kernel drop counter for a bound UDP socket, read from the
/// matching /proc/net/udp row (the SO_RXQ_OVFL ancillary counter misses
/// drops after the last delivered datagram; this one does not). nullopt
/// when the row cannot be found.
std::optional<std::uint64_t> udp_socket_drops(int fd);

// -- Sender side (load generator) -------------------------------------------

/// Blocking UDP socket connected to `address:port`.
Fd make_udp_sender(const std::string& address, std::uint16_t port);

/// Blocking TCP connection to `address:port` (TCP_NODELAY set — the load
/// generator wants its frames on the wire, not in Nagle's buffer).
Fd make_tcp_sender(const std::string& address, std::uint16_t port);

/// send() the whole buffer (loops on partial writes / EINTR). Returns
/// false on a send error (e.g. ECONNREFUSED on an unbound UDP port).
bool send_all(int fd, std::span<const std::uint8_t> bytes);

}  // namespace speedybox::io
