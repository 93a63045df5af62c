#include "runtime/executor.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {

const RunStats& Executor::run(const trace::Workload& workload) {
  const std::size_t size = std::max<std::size_t>(1, batch_size());
  std::vector<net::Packet> burst;
  burst.reserve(size);
  for (std::size_t offset = 0; offset < workload.packet_count();
       offset += size) {
    const std::size_t end = std::min(workload.packet_count(), offset + size);
    burst.clear();
    for (std::size_t i = offset; i < end; ++i) {
      burst.push_back(workload.materialize(i));
    }
    submit(burst, /*keep=*/false);
  }
  return drain(nullptr);
}

const RunStats& Executor::run(const std::vector<net::Packet>& packets,
                              std::vector<net::Packet>* outputs) {
  // Free what `outputs` held first: it and this run's packets are never
  // resident together.
  if (outputs != nullptr) outputs->clear();
  const std::size_t size = std::max<std::size_t>(1, batch_size());
  std::vector<net::Packet> burst;
  burst.reserve(size);
  for (std::size_t offset = 0; offset < packets.size(); offset += size) {
    const auto first = packets.begin() + static_cast<std::ptrdiff_t>(offset);
    burst.assign(first, first + static_cast<std::ptrdiff_t>(std::min(
                                    size, packets.size() - offset)));
    for (net::Packet& packet : burst) packet.reset_metadata();
    submit(burst, /*keep=*/outputs != nullptr);
  }
  return drain(outputs);
}

}  // namespace speedybox::runtime
