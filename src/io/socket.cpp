// recvmmsg()/mmsghdr are GNU extensions; the build is -std=c++20 strict,
// so the feature macro must come before the first libc header.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "io/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace speedybox::io {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::system_error(EINVAL, std::generic_category(),
                            "inet_pton(" + address + ")");
  }
  return addr;
}

std::uint16_t bound_port_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

Fd make_udp_receiver(const std::string& address, std::uint16_t port,
                     int rcvbuf_bytes, std::uint16_t* bound_port) {
  Fd fd{::socket(AF_INET, SOCK_DGRAM, 0)};
  if (!fd.valid()) throw_errno("socket(UDP)");
  const int on = 1;
  // Count receive-queue overflow per delivered datagram (ancillary data);
  // udp_socket_drops() reads the authoritative total at shutdown.
  if (setsockopt(fd.get(), SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof on) != 0) {
    throw_errno("setsockopt(SO_RXQ_OVFL)");
  }
  if (rcvbuf_bytes > 0 &&
      setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof rcvbuf_bytes) != 0) {
    throw_errno("setsockopt(SO_RCVBUF)");
  }
  const sockaddr_in addr = make_addr(address, port);
  if (bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
           sizeof addr) != 0) {
    throw_errno("bind(UDP)");
  }
  set_nonblocking(fd.get());
  if (bound_port != nullptr) *bound_port = bound_port_of(fd.get());
  return fd;
}

Fd make_tcp_listener(const std::string& address, std::uint16_t port,
                     std::uint16_t* bound_port, int backlog) {
  Fd fd{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd.valid()) throw_errno("socket(TCP)");
  const int on = 1;
  if (setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &on, sizeof on) != 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  const sockaddr_in addr = make_addr(address, port);
  if (bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
           sizeof addr) != 0) {
    throw_errno("bind(TCP)");
  }
  if (listen(fd.get(), backlog) != 0) throw_errno("listen");
  set_nonblocking(fd.get());
  if (bound_port != nullptr) *bound_port = bound_port_of(fd.get());
  return fd;
}

Fd accept_connection(int listener_fd) {
  const int conn = ::accept(listener_fd, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd{};
    throw_errno("accept");
  }
  Fd fd{conn};
  set_nonblocking(fd.get());
  return fd;
}

long recv_some(int fd, std::span<std::uint8_t> buffer) {
  const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return -1;  // nothing available
    }
    throw_errno("recv");
  }
  return static_cast<long>(n);
}

RecvManyResult recv_many(int fd, std::span<std::uint8_t> buffer,
                         std::size_t stride, std::span<std::size_t> lengths) {
  RecvManyResult result;
  const std::size_t by_buffer = stride == 0 ? 0 : buffer.size() / stride;
  const std::size_t want =
      std::min({lengths.size(), by_buffer, kRecvManyMax});
  if (want == 0) return result;

  mmsghdr msgs[kRecvManyMax];
  iovec iovs[kRecvManyMax];
  alignas(cmsghdr) char controls[kRecvManyMax]
                               [CMSG_SPACE(sizeof(std::uint32_t))];
  std::memset(msgs, 0, want * sizeof(mmsghdr));
  for (std::size_t i = 0; i < want; ++i) {
    iovs[i] = {buffer.data() + i * stride, stride};
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_control = controls[i];
    msgs[i].msg_hdr.msg_controllen = sizeof controls[i];
  }

  const int n = recvmmsg(fd, msgs, static_cast<unsigned int>(want),
                         MSG_DONTWAIT, nullptr);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return result;  // nothing available
    }
    throw_errno("recvmmsg");
  }
  result.messages = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < result.messages; ++i) {
    lengths[i] = msgs[i].msg_len;
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(&msgs[i].msg_hdr, cmsg)) {
      if (cmsg->cmsg_level == SOL_SOCKET &&
          cmsg->cmsg_type == SO_RXQ_OVFL) {
        std::uint32_t dropped = 0;
        std::memcpy(&dropped, CMSG_DATA(cmsg), sizeof dropped);
        result.rxq_dropped = dropped;
        result.has_drop_count = true;
      }
    }
  }
  return result;
}

std::optional<std::uint64_t> udp_socket_drops(int fd) {
  struct stat st{};
  if (fstat(fd, &st) != 0) return std::nullopt;
  const unsigned long long inode = st.st_ino;

  std::FILE* file = std::fopen("/proc/net/udp", "r");
  if (file == nullptr) return std::nullopt;
  char line[512];
  std::optional<std::uint64_t> drops;
  // Header, then one row per socket:
  //   sl local rem st queues tr retrnsmt uid timeout inode ref ptr drops
  while (std::fgets(line, sizeof line, file) != nullptr) {
    unsigned long long row_inode = 0, row_drops = 0;
    // The leading fields vary in width; scan from the uid column on.
    int matched = std::sscanf(
        line,
        " %*d: %*64[0-9A-Fa-f:] %*64[0-9A-Fa-f:] %*x %*x:%*x %*x:%*x %*x "
        "%*d %*d %llu %*d %*x %llu",
        &row_inode, &row_drops);
    if (matched == 2 && row_inode == inode) {
      drops = row_drops;
      break;
    }
  }
  std::fclose(file);
  return drops;
}

Fd make_udp_sender(const std::string& address, std::uint16_t port) {
  Fd fd{::socket(AF_INET, SOCK_DGRAM, 0)};
  if (!fd.valid()) throw_errno("socket(UDP)");
  const sockaddr_in addr = make_addr(address, port);
  if (connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
              sizeof addr) != 0) {
    throw_errno("connect(UDP)");
  }
  return fd;
}

Fd make_tcp_sender(const std::string& address, std::uint16_t port) {
  Fd fd{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd.valid()) throw_errno("socket(TCP)");
  const sockaddr_in addr = make_addr(address, port);
  if (connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
              sizeof addr) != 0) {
    throw_errno("connect(TCP)");
  }
  const int on = 1;
  if (setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &on, sizeof on) != 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
  return fd;
}

bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace speedybox::io
