#include "nf/maglev_lb.hpp"

#include <stdexcept>

#include "net/fields.hpp"
#include "nf/flow_state.hpp"

namespace speedybox::nf {

MaglevLb::MaglevLb(std::vector<Backend> backends, std::size_t table_size,
                   std::string name)
    : NetworkFunction(std::move(name)),
      backends_(std::move(backends)),
      table_size_(table_size),
      bytes_(backends_.size(), 0) {
  if (backends_.empty()) {
    throw std::invalid_argument("MaglevLb needs at least one backend");
  }
  rebuild_table();
}

void MaglevLb::rebuild_table() {
  std::vector<std::string> names;
  std::vector<bool> active;
  names.reserve(backends_.size());
  active.reserve(backends_.size());
  for (const Backend& b : backends_) {
    names.push_back(b.name);
    active.push_back(b.healthy);
  }
  table_.emplace(names, active, table_size_);
}

void MaglevLb::fail_backend(std::size_t index) {
  const std::lock_guard lock(mutex_);
  if (index >= backends_.size() || !backends_[index].healthy) return;
  backends_[index].healthy = false;
  rebuild_table();
}

void MaglevLb::heal_backend(std::size_t index) {
  const std::lock_guard lock(mutex_);
  if (index >= backends_.size() || backends_[index].healthy) return;
  backends_[index].healthy = true;
  rebuild_table();
}

std::size_t MaglevLb::assign(const core::HashedTuple& flow) {
  // The flow hash is computed once per packet and reused for the Maglev
  // table lookup and the connection-tracking insert.
  const std::int32_t backend = table_->lookup(flow.hash.value);
  if (backend < 0) {
    throw std::runtime_error("MaglevLb: no healthy backend");
  }
  *conn_track_.try_emplace(flow.tuple, flow.hash).first =
      static_cast<std::size_t>(backend);
  return static_cast<std::size_t>(backend);
}

std::size_t MaglevLb::ensure_healthy(const core::HashedTuple& flow) {
  const std::size_t* backend = conn_track_.find(flow.tuple, flow.hash);
  if (backend == nullptr) return assign(flow);
  if (!backends_[*backend].healthy) {
    // Failover: re-run consistent hashing over the rebuilt table. This is
    // the behavior the SpeedyBox event expresses on the fast path.
    ++reroutes_;
    return assign(flow);
  }
  return *backend;
}

std::vector<core::HeaderAction> MaglevLb::actions_for(
    std::size_t backend) const {
  const Backend& b = backends_[backend];
  return {
      core::HeaderAction::modify(net::HeaderField::kDstIp, b.ip.value),
      core::HeaderAction::modify(net::HeaderField::kDstPort, b.port),
  };
}

void MaglevLb::process(net::Packet& packet, core::SpeedyBoxContext* ctx) {
  count_packet();
  const auto parsed = parse_and_check(packet);  // R1: per-NF parse+validate
  if (!parsed) return;
  const auto flow =
      core::HashedTuple::of(net::extract_five_tuple(packet, *parsed));
  const net::FiveTuple tuple = flow.tuple;

  std::vector<core::HeaderAction> actions;
  const std::size_t* backend_cell = nullptr;
  {
    const std::lock_guard lock(mutex_);
    const std::size_t backend = ensure_healthy(flow);
    actions = actions_for(backend);
    bytes_[backend] += packet.size();
    backend_cell = conn_track_.find(tuple, flow.hash);
  }
  for (const core::HeaderAction& action : actions) {
    core::apply_action_baseline(action, packet);
  }

  if (ctx != nullptr) record(tuple, backend_cell, actions, *ctx);

  // Connection close: release the tracking entry inline on the unrecorded
  // path; the teardown hook handles the recorded path (after the rule
  // whose handler references the tracking cell has been destroyed).
  if (ctx == nullptr && parsed->has_fin_or_rst()) {
    const std::lock_guard lock(mutex_);
    conn_track_.erase(tuple);
  }
}

std::optional<std::size_t> MaglevLb::backend_of(
    const net::FiveTuple& tuple) const {
  const std::lock_guard lock(mutex_);
  const std::size_t* backend = conn_track_.find(tuple);
  if (backend == nullptr) return std::nullopt;
  return *backend;
}

void MaglevLb::on_flow_teardown(const net::FiveTuple& tuple) {
  const std::lock_guard lock(mutex_);
  conn_track_.erase(tuple);
}

std::optional<std::vector<std::uint8_t>> MaglevLb::export_flow_state(
    const net::FiveTuple& tuple) {
  const std::lock_guard lock(mutex_);
  return conn_track_.export_state(tuple);
}

void MaglevLb::import_flow_state(const net::FiveTuple& tuple,
                                 std::span<const std::uint8_t> bytes,
                                 core::SpeedyBoxContext* ctx) {
  std::size_t backend = 0;
  std::vector<core::HeaderAction> actions;
  const std::size_t* backend_cell = nullptr;
  {
    const std::lock_guard lock(mutex_);
    std::size_t& cell = conn_track_.import_state(tuple, bytes);
    if (cell >= backends_.size()) {
      conn_track_.erase(tuple);
      throw std::invalid_argument("MaglevLb: imported backend out of range");
    }
    backend = cell;
    actions = actions_for(backend);
    backend_cell = &cell;
  }
  // Re-record what process() recorded for the initial packet (the lock is
  // released first — see the lock-order note on mutex_), bound to the
  // destination's connection-tracking cell.
  if (ctx != nullptr) record(tuple, backend_cell, actions, *ctx);
}

void MaglevLb::record(const net::FiveTuple& tuple,
                      const std::size_t* backend_cell,
                      const std::vector<core::HeaderAction>& actions,
                      core::SpeedyBoxContext& ctx) {
  for (const core::HeaderAction& action : actions) {
    ctx.add_header_action(action);
  }
  // Per-backend byte accounting as an IGNORE-class state function. The
  // recorded args bind the flow's connection-tracking cell directly
  // (pointer-stable slab record, rewritten in place by assign() on
  // failover), so the handler always charges the *current* backend
  // without a per-packet table lookup.
  core::localmat_add_SF(
      &ctx,
      [this, backend_cell](net::Packet& pkt, const net::ParsedPacket&) {
        const std::lock_guard lock(mutex_);
        bytes_[*backend_cell] += pkt.size();
      },
      core::PayloadAccess::kIgnore, bytes_name_, backend_cell);
  // The failover event (§V-A Observation 2): when the flow's backend goes
  // unhealthy, reroute and swap the modify actions on the fast path. The
  // condition reads the same bound cell, so it follows every reroute.
  // Persistent, so repeated failures keep being handled, mirroring the
  // per-packet health check of the baseline path. Both lambdas run on
  // the manager core (Global MAT event check) while the data path runs
  // on this NF's core — hence the lock.
  ctx.register_event(
      failover_name_,
      [this, backend_cell]() {
        const std::lock_guard lock(mutex_);
        return !backends_[*backend_cell].healthy;
      },
      [this, tuple]() {
        const std::lock_guard lock(mutex_);
        ++reroutes_;
        const std::size_t next = assign(core::HashedTuple::of(tuple));
        core::EventUpdate update;
        update.header_actions = actions_for(next);
        return update;
      },
      /*one_shot=*/false, backend_cell);
  ctx.on_teardown([this, tuple]() {
    const std::lock_guard lock(mutex_);
    conn_track_.erase(tuple);
  });
}

}  // namespace speedybox::nf
