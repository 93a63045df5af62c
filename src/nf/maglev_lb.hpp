// Maglev-style load balancer NF (§VI-C).
//
// Distributes flows across backends with the Maglev consistent-hashing
// table and tracks connections so established flows stick to their backend.
// Fault tolerance is the paper's canonical *event* example: when a backend
// fails, established flows pinned to it are rerouted (consistent hashing
// over the rebuilt table), which on the SpeedyBox path fires a registered
// event that swaps the flow's modify(DIP, DPort) header actions and
// re-consolidates the fast path (§V-A Observation 2).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "nf/flow_state.hpp"
#include "nf/maglev_hash.hpp"
#include "nf/network_function.hpp"

namespace speedybox::nf {

struct Backend {
  std::string name;
  net::Ipv4Addr ip;
  std::uint16_t port = 0;
  bool healthy = true;
};

class MaglevLb : public NetworkFunction {
 public:
  MaglevLb(std::vector<Backend> backends, std::size_t table_size = 65537,
           std::string name = "maglev");

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override;
  void on_flow_teardown(const net::FiveTuple& tuple) override;
  /// Replicas copy the backend set (including current health) and rebuild
  /// the Maglev table; assignment is a pure function of tuple + table, so
  /// every replica steers a flow to the same backend.
  std::unique_ptr<NetworkFunction> clone() const override {
    return std::make_unique<MaglevLb>(backends_, table_size_, name());
  }

  // Migration payload: the flow's current backend index. Connection
  // stickiness survives migration (the §VII-C comparison state); per-backend
  // byte totals are shard-local aggregates and are not migrated.
  bool supports_flow_migration() const override { return true; }
  std::optional<std::vector<std::uint8_t>> export_flow_state(
      const net::FiveTuple& tuple) override;
  void import_flow_state(const net::FiveTuple& tuple,
                         std::span<const std::uint8_t> bytes,
                         core::SpeedyBoxContext* ctx) override;

  /// Control plane: health transitions rebuild the lookup table over the
  /// surviving backends (what Maglev's health checker does).
  void fail_backend(std::size_t index);
  void heal_backend(std::size_t index);

  const std::vector<Backend>& backends() const noexcept { return backends_; }
  /// Current backend of a tracked flow; nullopt if untracked.
  std::optional<std::size_t> backend_of(const net::FiveTuple& tuple) const;
  /// Bytes steered to each backend (state the §VII-C test compares).
  /// Returns a reference: only inspect while the NF is quiescent.
  const std::vector<std::uint64_t>& bytes_per_backend() const noexcept {
    return bytes_;
  }
  std::uint64_t reroutes() const {
    const std::lock_guard lock(mutex_);
    return reroutes_;
  }
  std::size_t tracked_flows() const {
    const std::lock_guard lock(mutex_);
    return conn_track_.size();
  }

  core::FlowTableStats flow_state_stats() const override {
    const std::lock_guard lock(mutex_);
    return conn_track_.stats();
  }

 private:
  void rebuild_table();
  std::size_t assign(const core::HashedTuple& flow);
  /// Ensure the flow's backend is healthy, rerouting if not. Returns the
  /// (possibly new) backend index.
  std::size_t ensure_healthy(const core::HashedTuple& flow);
  std::vector<core::HeaderAction> actions_for(std::size_t backend) const;
  /// Record the flow's modify actions, byte accounting, failover event and
  /// cleanup, bound to its connection-tracking cell — shared by the
  /// initial-packet path and flow-state import.
  void record(const net::FiveTuple& tuple, const std::size_t* backend_cell,
              const std::vector<core::HeaderAction>& actions,
              core::SpeedyBoxContext& ctx);

  /// Guards conn_track_, backends_, table_, bytes_ and reroutes_. Unlike
  /// most NF-internal state (single-owner by the concurrency contract),
  /// this NF deliberately shares its connection table with the failover
  /// event lambdas, which the Global MAT's event check runs on the
  /// *manager* core while the data path and teardown hooks run on the NF's
  /// own core. Never held across a SpeedyBoxContext call: recording
  /// needs no lock of its own, but keeping the two apart leaves no lock
  /// order to get wrong.
  mutable std::mutex mutex_;
  std::vector<Backend> backends_;
  std::size_t table_size_;
  std::optional<MaglevTable> table_;
  FlowStateTable<std::size_t> conn_track_;  // flow -> backend index
  std::vector<std::uint64_t> bytes_;
  std::uint64_t reroutes_ = 0;
  // Recorded names, built once: flow records keep views of them.
  const std::string bytes_name_ = name() + ".bytes";
  const std::string failover_name_ = name() + ".failover";
};

}  // namespace speedybox::nf
