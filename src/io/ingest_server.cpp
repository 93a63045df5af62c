#include "io/ingest_server.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/cycle_clock.hpp"

namespace speedybox::io {
namespace {

/// Cap on one poll wait: bounds how long a partial batch can sit staged
/// under trickle traffic (the flush-on-idle-wakeup in serve()).
constexpr int kFlushIntervalMs = 5;

/// TCP read scratch: one stream chunk.
constexpr std::size_t kRecvBufferBytes = 64 * 1024;

/// Per-datagram slot in the recvmmsg scratch: every frame decode_frame
/// accepts fits whole, and the byte past kMaxFrameBytes makes a longer
/// datagram read as oversize rather than as a frame cut to size.
constexpr std::size_t kDatagramSlotBytes = kMaxFrameBytes + 1;

}  // namespace

const char* ingest_proto_name(IngestProto proto) noexcept {
  switch (proto) {
    case IngestProto::kUdp:
      return "udp";
    case IngestProto::kTcp:
      return "tcp";
    case IngestProto::kBoth:
      return "both";
  }
  return "unknown";
}

IngestServer::IngestServer(IngestConfig config) : config_(std::move(config)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.rx_budget == 0) config_.rx_budget = 1;
  if (config_.proto == IngestProto::kUdp || config_.proto == IngestProto::kBoth) {
    udp_ = make_udp_receiver(config_.bind_address, config_.port,
                             config_.rcvbuf_bytes, &udp_port_);
  }
  if (config_.proto == IngestProto::kTcp || config_.proto == IngestProto::kBoth) {
    tcp_listener_ =
        make_tcp_listener(config_.bind_address, config_.port, &tcp_port_);
  }
  if (tcp_listener_.valid()) recv_buffer_.resize(kRecvBufferBytes);
  if (udp_.valid()) {
    const std::size_t slots = std::min(config_.rx_budget, kRecvManyMax);
    mmsg_buffer_.resize(slots * kDatagramSlotBytes);
    mmsg_lengths_.resize(slots);
  }
  staged_.reserve(config_.batch_size);
  staged_recv_cycle_.reserve(config_.batch_size);
}

IngestServer::~IngestServer() = default;

void IngestServer::attach_telemetry(telemetry::Registry* registry,
                                    const std::string& label) {
  metrics_ = registry != nullptr ? &registry->create_shard(label) : nullptr;
}

IngestStats IngestServer::serve(runtime::Executor& executor, Gate gate) {
  if (served_) {
    throw std::logic_error("IngestServer::serve is one-shot");
  }
  served_ = true;
  executor_ = &executor;
  gate_ = std::move(gate);
  stats_ = IngestStats{};
  if (udp_.valid()) {
    drop_baseline_ = udp_socket_drops(udp_.get()).value_or(0);
    loop_.add(udp_.get(), EPOLLIN, [this](std::uint32_t) { drain_udp(); });
  }
  if (tcp_listener_.valid()) {
    loop_.add(tcp_listener_.get(), EPOLLIN,
              [this](std::uint32_t) { accept_tcp(); });
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point serve_start = Clock::now();
  Clock::time_point last_activity = serve_start;
  // "Activity" = anything arriving from the wire; frames, raw bytes and
  // new connections all reset the idle clock.
  auto activity_mark = [this] {
    return stats_.rx_bytes + stats_.tcp_connections;
  };
  std::uint64_t last_mark = activity_mark();

  while (!loop_.stopped()) {
    const auto idle_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             Clock::now() - last_activity)
                             .count();
    const int remaining =
        config_.idle_timeout_ms - static_cast<int>(idle_ms);
    if (remaining <= 0) break;
    const int dispatched =
        loop_.poll_once(std::min(remaining, kFlushIntervalMs));
    if (dispatched < 0) break;  // stop() was called
    const std::uint64_t mark = activity_mark();
    if (mark != last_mark) {
      last_mark = mark;
      last_activity = Clock::now();
    } else {
      // Idle wakeup: anything staged has waited kFlushIntervalMs already —
      // push the partial batch rather than holding it against the timeout.
      flush_staged();
    }
  }

  flush_staged();
  stats_.drive_seconds =
      std::chrono::duration<double>(last_activity - serve_start).count();

  // Tear down loop registrations (the fds outlive serve(); a test may
  // inspect the sockets afterwards, and the destructor closes them).
  if (udp_.valid()) {
    // Authoritative drop count. SO_RXQ_OVFL ancillary data misses drops
    // after the last *delivered* datagram, so prefer the /proc row; the
    // in-loop ancillary counter is the (lower-bound) fallback when the row
    // is unreadable.
    const std::optional<std::uint64_t> authoritative =
        udp_socket_drops(udp_.get());
    const std::uint64_t cumulative =
        authoritative.has_value() ? *authoritative : cmsg_drops_;
    stats_.socket_drops =
        cumulative >= drop_baseline_ ? cumulative - drop_baseline_ : 0;
    loop_.remove(udp_.get());
  }
  publish();
  if (tcp_listener_.valid()) loop_.remove(tcp_listener_.get());
  for (const std::unique_ptr<TcpConn>& conn : conns_) {
    loop_.remove(conn->fd.get());
  }
  conns_.clear();
  executor_ = nullptr;
  gate_ = nullptr;
  return stats_;
}

void IngestServer::drain_udp() {
  // Up to rx_budget datagrams per wakeup, one recvmmsg() per slot-capacity
  // batch.
  std::size_t drained = 0;
  while (drained < config_.rx_budget) {
    const std::size_t want =
        std::min(config_.rx_budget - drained, mmsg_lengths_.size());
    const RecvManyResult result =
        recv_many(udp_.get(), mmsg_buffer_, kDatagramSlotBytes,
                  std::span<std::size_t>(mmsg_lengths_.data(), want));
    if (result.has_drop_count) cmsg_drops_ = result.rxq_dropped;
    if (result.messages == 0) break;  // would-block
    for (std::size_t i = 0; i < result.messages; ++i) {
      stats_.rx_bytes += mmsg_lengths_[i];
      ingest_frame(std::span<const std::uint8_t>(
          mmsg_buffer_.data() + i * kDatagramSlotBytes, mmsg_lengths_[i]));
    }
    drained += result.messages;
    if (result.messages < want) break;  // socket drained dry
  }
}

void IngestServer::accept_tcp() {
  while (true) {
    Fd conn_fd = accept_connection(tcp_listener_.get());
    if (!conn_fd.valid()) break;
    ++stats_.tcp_connections;
    auto conn = std::make_unique<TcpConn>();
    conn->fd = std::move(conn_fd);
    TcpConn* raw = conn.get();
    conns_.push_back(std::move(conn));
    loop_.add(raw->fd.get(), EPOLLIN | EPOLLRDHUP,
              [this, raw](std::uint32_t events) { drain_tcp(*raw, events); });
  }
}

void IngestServer::drain_tcp(TcpConn& conn, std::uint32_t events) {
  (void)events;  // level-triggered EPOLLIN covers the RDHUP drain too
  bool closed = false;
  // Budget the raw reads (the fairness unit for a stream), then pop every
  // complete frame the reassembler holds — a frame already buffered in
  // user space must not wait for more wire bytes to be dispatched.
  for (std::size_t i = 0; i < config_.rx_budget; ++i) {
    const long bytes = recv_some(conn.fd.get(), recv_buffer_);
    if (bytes < 0) break;  // would-block
    if (bytes == 0) {      // orderly EOF
      closed = true;
      break;
    }
    stats_.rx_bytes += static_cast<std::uint64_t>(bytes);
    conn.framer.feed(std::span<const std::uint8_t>(
        recv_buffer_.data(), static_cast<std::size_t>(bytes)));
  }
  while (std::optional<std::vector<std::uint8_t>> frame = conn.framer.next()) {
    ingest_frame(*frame);
  }
  if (conn.framer.poisoned()) {
    // Frame boundaries are lost; everything further on this stream is
    // garbage. Kill the connection, count the event.
    ++stats_.poisoned_streams;
    closed = true;
  }
  if (closed) {
    if (conn.framer.buffered() > 0) {
      // The peer closed mid-frame: the tail can never complete. Count it
      // as a parse error so the bytes are not silently unaccounted.
      ++stats_.parse_errors;
    }
    close_conn(conn.fd.get());
  }
}

void IngestServer::ingest_frame(std::span<const std::uint8_t> bytes) {
  net::Packet packet;
  const FrameError error = decode_frame(bytes, packet);
  if (error != FrameError::kOk) {
    ++stats_.parse_errors;
    return;
  }
  ++stats_.rx_frames;
  staged_.push_back(std::move(packet));
  if (metrics_ != nullptr) {
    staged_recv_cycle_.push_back(util::CycleClock::now());
  }
  if (staged_.size() >= config_.batch_size) flush_staged();
}

void IngestServer::flush_staged() {
  if (staged_.empty()) return;
  if (metrics_ != nullptr) {
    const std::uint64_t now = util::CycleClock::now();
    for (const std::uint64_t recv_cycle : staged_recv_cycle_) {
      metrics_->ingest_cycles.record(now >= recv_cycle ? now - recv_cycle : 0);
    }
    staged_recv_cycle_.clear();
  }
  ++stats_.rx_batches;
  if (gate_) {
    // Shed packets compact out here, so the executor sees only the packets
    // the host gate admitted.
    std::erase_if(staged_,
                  [this](const net::Packet& packet) { return !gate_(packet); });
  }
  // The executor takes the packets; clear() keeps the batch's capacity.
  executor_->submit(staged_, /*keep=*/false);
  staged_.clear();
  publish();
}

void IngestServer::publish() {
  if (metrics_ == nullptr) return;
  metrics_->rx_bytes.set(stats_.rx_bytes);
  metrics_->rx_frames.set(stats_.rx_frames);
  metrics_->rx_batches.set(stats_.rx_batches);
  metrics_->parse_errors.set(stats_.parse_errors);
  metrics_->socket_drops.set(stats_.socket_drops);
}

void IngestServer::close_conn(int fd) {
  loop_.remove(fd);
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [fd](const std::unique_ptr<TcpConn>& conn) {
                                return conn->fd.get() == fd;
                              }),
               conns_.end());
}

}  // namespace speedybox::io
