#include "runtime/sharded_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>

#include "net/packet_batch.hpp"
#include "util/cycle_clock.hpp"
#include "util/hash.hpp"

namespace speedybox::runtime {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Kept slots: 4096 first, then ×16 (65536, 1M, ...). Each growth step
// quiesces, so long runs take few, and tests cross them cheaply.
constexpr std::size_t kFirstKeptSlots = 4096;
constexpr std::size_t kKeptGrowth = 16;

}  // namespace

ShardedRuntime::ShardedRuntime(const ServiceChain& prototype,
                               std::size_t shard_count, RunConfig config,
                               std::size_t ring_capacity,
                               telemetry::Registry* registry,
                               std::string shard_label_prefix)
    : config_(config),
      ring_capacity_(ring_capacity),
      registry_(registry),
      label_prefix_(std::move(shard_label_prefix) + "shard") {
  if (shard_count == 0) shard_count = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  // Keep a pristine replica so later scale-ups can clone fresh shards; the
  // caller's prototype is only borrowed for the constructor's duration.
  prototype_ = prototype.clone("");
  ensure_worker_shards(shard_count);
  active_count_ = shard_count;
  start_ns_ = steady_ns();
}

ShardedRuntime::~ShardedRuntime() { join_workers(); }

std::size_t ShardedRuntime::shard_of(
    const net::FiveTuple& tuple) const noexcept {
  return util::shard_index(tuple.symmetric_hash(), active_count_);
}

ServiceChain& ShardedRuntime::shard_chain(std::size_t shard) {
  return *shards_.at(shard)->chain;
}

double ShardedRuntime::max_ring_occupancy() const noexcept {
  double worst = 0.0;
  for (std::size_t s = 0; s < active_count_; ++s) {
    const util::SpscRing<Job>& ring = *shards_[s]->ring;
    const double fill = static_cast<double>(ring.size()) /
                        static_cast<double>(ring.capacity());
    worst = std::max(worst, fill);
  }
  return worst;
}

void ShardedRuntime::set_scale_hook(ScaleHook hook,
                                    std::uint64_t interval_packets) {
  scale_hook_ = std::move(hook);
  scale_interval_ = interval_packets == 0 ? 1 : interval_packets;
}

void ShardedRuntime::dispatch(net::Packet&& packet, bool keep) {
  if (joined_) {
    throw std::logic_error("ShardedRuntime: packet after finish()");
  }
  // Unparseable packets have no flow; any fixed shard preserves their
  // relative order.
  std::size_t shard_index = 0;
  if (const auto parsed = net::parse_packet(packet)) {
    shard_index = shard_of(net::extract_five_tuple(packet, *parsed));
  }
  Job job;
  job.packet = std::move(packet);
  if (keep) {
    if (kept_packets_.size() == kept_packets_.capacity()) {
      // Reallocation moves every slot: no job in flight may hold an old
      // address. reserve() maps pages that only emplace_back() touches.
      if (!kept_packets_.empty()) quiesce();
      kept_packets_.reserve(
          std::max(kFirstKeptSlots, kept_packets_.capacity() * kKeptGrowth));
      kept_outcomes_.reserve(kept_packets_.capacity());
    }
    job.kept_packet = &kept_packets_.emplace_back();
    job.kept_outcome = &kept_outcomes_.emplace_back();
  }
  Shard& shard = *shards_[shard_index];
  shard.staging.push_back(std::move(job));
  if (shard.staging.size() >= config_.batch_size) {
    flush_shard(shard);
  }
  // Scaling decisions fire at exact packet counts, independent of batch
  // size or worker timing — the property the autoscale differential-
  // equivalence harness leans on.
  ++pushed_;
  if (scale_hook_ && pushed_ % scale_interval_ == 0) {
    scale_hook_(*this);
  }
}

void ShardedRuntime::submit(std::span<net::Packet> burst, bool keep) {
  for (net::Packet& packet : burst) dispatch(std::move(packet), keep);
}

void ShardedRuntime::shed_jobs(Shard& shard, std::span<Job> jobs) {
  dispatcher_shed_ += jobs.size();
  if (shard.metrics != nullptr) shard.metrics->shed_ring.add(jobs.size());
  for (Job& job : jobs) {
    if (job.kept_packet == nullptr) continue;
    job.packet.mark_dropped();
    *job.kept_packet = std::move(job.packet);
    job.kept_outcome->dropped = true;
    job.kept_outcome->shed = true;
  }
}

void ShardedRuntime::flush_shard(Shard& shard) {
  if (shard.staging.empty()) return;
  util::SpscRing<Job>& ring = *shard.ring;
  telemetry::ShardMetrics* metrics = shard.metrics;
  if (metrics != nullptr) {
    metrics->ring_burst_size.set(shard.staging.size());
  }
  std::span<Job> pending{shard.staging};
  // With overload enabled a pressured ring sheds the burst outright —
  // bounded queueing instead of unbounded dispatcher blocking. The shard
  // worker owns the gate's shed cells, so these sheds go to the
  // dispatcher-owned shed_ring cell (single-writer contract).
  const bool gated = config_.overload.enabled;
  if (gated && ring.over_watermark()) {
    shed_jobs(shard, pending);
    shard.staging.clear();
    if (metrics != nullptr) metrics->ring_occupancy.set(ring.size());
    return;
  }
  // A partial try_push_burst moves out exactly the slots it reports and
  // leaves the remainder intact, so the backpressure loop retries the
  // un-pushed tail until the worker frees room.
  bool waited = false;
  while (!pending.empty()) {
    const std::size_t pushed = ring.try_push_burst(pending);
    pending = pending.subspan(pushed);
    if (pending.empty()) break;
    if (gated) {
      // Full ring under overload: shed the remainder, never block.
      shed_jobs(shard, pending);
      break;
    }
    if (!waited) {
      waited = true;
      ++backpressure_waits_;
    }
    if (metrics != nullptr) metrics->backpressure_yields.add(1);
    std::this_thread::yield();
  }
  shard.staging.clear();
  // Dispatcher-owned gauge (see constructor comment): depth after this
  // flush, as the dispatcher sees it.
  if (metrics != nullptr) metrics->ring_occupancy.set(ring.size());
}

void ShardedRuntime::worker(Shard& shard) {
  const std::size_t burst = config_.batch_size;
  std::vector<Job> jobs(burst);
  std::vector<std::size_t> live;  // burst slots that carry real packets
  std::vector<PacketOutcome> outcomes;
  net::PacketBatch batch{burst};
  for (;;) {
    const std::size_t popped =
        shard.ring->try_pop_burst(std::span<Job>{jobs});
    if (popped == 0) {
      if ((done_.load(std::memory_order_acquire) ||
           shard.stop.load(std::memory_order_acquire)) &&
          shard.ring->empty()) {
        return;
      }
      std::this_thread::yield();
      continue;
    }
    batch.clear();
    live.clear();
    std::uint64_t marker_epoch = 0;
    // One arrival stamp per burst: its only reader is the classifier's
    // idle clock.
    const std::uint64_t arrival = util::CycleClock::now();
    for (std::size_t i = 0; i < popped; ++i) {
      if (jobs[i].drain_epoch != 0) {
        marker_epoch = std::max(marker_epoch, jobs[i].drain_epoch);
        continue;
      }
      jobs[i].packet.set_arrival_cycle(arrival);
      batch.push(&jobs[i].packet);
      live.push_back(i);
    }
    if (!live.empty()) {
      shard.runner->process_batch(batch, outcomes);
      for (std::size_t k = 0; k < live.size(); ++k) {
        Job& job = jobs[live[k]];
        if (job.kept_packet == nullptr) continue;
        *job.kept_packet = std::move(job.packet);
        *job.kept_outcome = outcomes[k];
      }
    }
    if (marker_epoch != 0) {
      // Everything queued ahead of the marker is fully processed; the
      // release store pairs with quiesce()'s acquire load so the
      // dispatcher sees every chain/state write this worker made.
      shard.drained_epoch.store(marker_epoch, std::memory_order_release);
    }
  }
}

void ShardedRuntime::start_worker(Shard& shard) {
  shard.stop.store(false, std::memory_order_relaxed);
  shard.thread = std::thread([this, target = &shard] { worker(*target); });
  shard.running = true;
}

void ShardedRuntime::ensure_worker_shards(std::size_t count) {
  while (shards_.size() < count) {
    const std::size_t s = shards_.size();
    auto shard = std::make_unique<Shard>();
    shard->chain = prototype_->clone("-shard" + std::to_string(s));
    shard->runner = std::make_unique<ChainRunner>(*shard->chain, config_);
    shard->ring = std::make_unique<util::SpscRing<Job>>(ring_capacity_);
    shard->staging.reserve(config_.batch_size);
    if (registry_ != nullptr) {
      shard->metrics = &registry_->create_shard(
          label_prefix_ + std::to_string(s), prototype_->nf_names());
      shard->metrics->ring_capacity.set(shard->ring->capacity());
      shard->runner->set_telemetry(shard->metrics);
    }
    if (config_.overload.enabled) arm_ring_watermarks(*shard->ring);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t s = 0; s < count; ++s) {
    Shard& shard = *shards_[s];
    if (!shard.running) start_worker(shard);
  }
}

void ShardedRuntime::retire_worker_shards(std::size_t count) {
  for (std::size_t s = count; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (!shard.running) continue;
    flush_shard(shard);
    shard.stop.store(true, std::memory_order_release);
    shard.thread.join();
    shard.running = false;
  }
}

void ShardedRuntime::set_active_shard_count(std::size_t count) {
  if (count == 0 || count > shards_.size()) {
    throw std::logic_error(
        "ShardedRuntime::set_active_shard_count: count out of range");
  }
  for (std::size_t s = 0; s < count; ++s) {
    if (!shards_[s]->running) {
      throw std::logic_error(
          "ShardedRuntime::set_active_shard_count: shard " +
          std::to_string(s) + " is not running");
    }
  }
  active_count_ = count;
}

void ShardedRuntime::quiesce() {
  const std::uint64_t epoch = ++quiesce_epoch_;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (!shard.running) continue;  // retired: joined, nothing in flight
    flush_shard(shard);
    Job marker;
    marker.drain_epoch = epoch;
    // Markers are control traffic: they bypass the watermark shed (losing
    // one would deadlock the quiesce) and spin past a full ring.
    while (!shard.ring->try_push(std::move(marker))) {
      std::this_thread::yield();
    }
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (!shard.running) continue;
    while (shard.drained_epoch.load(std::memory_order_acquire) < epoch) {
      std::this_thread::yield();
    }
  }
}

void ShardedRuntime::join_workers() {
  if (joined_) return;
  // Partial bursts still staged dispatcher-side must reach the rings
  // before the shutdown flag, or the workers would exit with packets
  // unprocessed.
  for (auto& shard : shards_) {
    if (shard->running) flush_shard(*shard);
  }
  done_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    shard->running = false;
  }
  joined_ = true;
}

ShardedRunResult ShardedRuntime::finish() {
  join_workers();
  ShardedRunResult result;
  result.wall_seconds =
      static_cast<double>(steady_ns() - start_ns_) / 1e9;
  result.shard_packets.reserve(shards_.size());
  for (auto& shard : shards_) {
    const RunStats& stats = shard->runner->stats();
    result.shard_packets.push_back(stats.packets);
    result.stats.merge_from(stats);
    result.aggregate_rate_mpps += stats.rate_mpps(config_.platform);
  }
  // Dispatcher-shed packets never reached a shard runner, so no shard's
  // `offered` counted them: add them to both sides of the conservation
  // identity (offered == packets + shed_total) exactly once.
  result.stats.overload.offered += dispatcher_shed_;
  result.stats.overload.shed_watermark += dispatcher_shed_;
  result.outcomes = std::move(kept_outcomes_);
  result.packets = std::move(kept_packets_);
  return result;
}

ShardedRunResult ShardedRuntime::run_packets(
    const std::vector<net::Packet>& packets) {
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    push(std::move(packet));
  }
  return finish();
}

const RunStats& ShardedRuntime::drain(std::vector<net::Packet>* outputs) {
  last_result_ = finish();
  if (outputs != nullptr) *outputs = std::move(last_result_.packets);
  last_result_.packets = {};
  return last_result_.stats;
}

void ShardedRuntime::attach_telemetry(telemetry::Registry* registry,
                                      const std::string& label) {
  if (pushed_ != 0) {
    throw std::logic_error(
        "ShardedRuntime::attach_telemetry after first push");
  }
  registry_ = registry;
  label_prefix_ = label + "/shard";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (registry == nullptr) {
      shard.metrics = nullptr;
      shard.runner->set_telemetry(nullptr);
      continue;
    }
    shard.metrics = &registry->create_shard(
        label_prefix_ + std::to_string(s), shard.chain->nf_names());
    shard.metrics->ring_capacity.set(shard.ring->capacity());
    shard.runner->set_telemetry(shard.metrics);
  }
}

}  // namespace speedybox::runtime
