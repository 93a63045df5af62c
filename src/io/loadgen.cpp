#include "io/loadgen.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "io/frame.hpp"
#include "io/socket.hpp"

namespace speedybox::io {
namespace {

/// One sender: replay every frame of `workload`, `config.repeat` times, to
/// `report.port` at `rate_pps`.
void replay_to(const trace::Workload& workload, const LoadgenConfig& config,
               double rate_pps, LoadgenReport& report) {
  const bool tcp = config.proto == IngestProto::kTcp;
  Fd sock = tcp ? make_tcp_sender(config.host, report.port)
                : make_udp_sender(config.host, report.port);

  std::vector<std::uint8_t> tcp_buffer;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::uint64_t scheduled = 0;
  for (std::size_t round = 0; round < config.repeat; ++round) {
    for (std::size_t i = 0; i < workload.packet_count(); ++i, ++scheduled) {
      if (rate_pps > 0.0) {
        // Absolute schedule: frame k is due at start + k/rate. sleep_until
        // (not sleep_for) so send-time jitter never accumulates.
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(scheduled) / rate_pps));
        std::this_thread::sleep_until(due);
      }
      const net::Packet frame = workload.materialize(i);
      bool ok;
      std::size_t wire_bytes;
      if (tcp) {
        tcp_buffer.clear();
        append_framed(tcp_buffer, frame.bytes());
        wire_bytes = tcp_buffer.size();
        ok = send_all(sock.get(), tcp_buffer);
      } else {
        wire_bytes = frame.size();
        ok = send_all(sock.get(), frame.bytes());
      }
      if (ok) {
        ++report.sent;
        report.bytes += wire_bytes;
      } else {
        ++report.send_errors;
      }
    }
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  report.elapsed_s = elapsed.count();
  report.achieved_pps = report.elapsed_s > 0.0
                            ? static_cast<double>(report.sent) /
                                  report.elapsed_s
                            : 0.0;
}

}  // namespace

std::vector<LoadgenReport> replay_workload(const trace::Workload& workload,
                                           const LoadgenConfig& config) {
  if (config.proto == IngestProto::kBoth) {
    throw std::invalid_argument("loadgen speaks one protocol per socket");
  }
  if (config.ports.empty()) {
    throw std::invalid_argument("loadgen: no destination port");
  }
  const std::vector<double>& rates = config.rates_pps;
  if (rates.size() > 1 && rates.size() != config.ports.size()) {
    throw std::invalid_argument(
        "loadgen: per-port rates must match the port count (or be one "
        "broadcast rate)");
  }
  std::vector<LoadgenReport> reports(config.ports.size());
  const auto send = [&](std::size_t i) {
    reports[i].port = config.ports[i];
    try {
      replay_to(workload, config,
                rates.empty() ? 0.0 : rates[rates.size() == 1 ? 0 : i],
                reports[i]);
    } catch (const std::exception& error) {
      reports[i].error = error.what();
    }
  };
  // The calling thread sends to the first port, so one destination starts
  // no thread: bench_ingest, which preloads its socket and then serves it
  // from the same thread, read a 12% lower live/udp rel_rate with one.
  std::vector<std::thread> senders;
  for (std::size_t i = 1; i < config.ports.size(); ++i) {
    senders.emplace_back(send, i);
  }
  send(0);
  for (std::thread& sender : senders) sender.join();
  return reports;
}

}  // namespace speedybox::io
