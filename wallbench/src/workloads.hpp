// The benchmark's four workloads and its packet source.
//
// A workload is one chain, one executor shape and one traffic generator.
// Traffic is generated from the workload seed during set-up and stored in
// a PacketArena; the program only ever receives the generated packets.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "runtime/plan.hpp"
#include "trace/workload.hpp"

namespace wallbench {

enum class Shape { kRunner, kSharded };

/// Worker shards of the sharded workload; the benchmark thread dispatches.
inline constexpr std::size_t kShardedWorkers = 3;

struct WorkloadDef {
  std::string_view name;
  Shape shape = Shape::kRunner;
  int chain = 1;  // §VII-C chain 1 (gateway) or 2 (IDS)
  /// make_datacenter_workload knobs: flow count and lognormal flow size.
  std::size_t flows = 0;
  double flow_size_mu = 2.1;
  double flow_size_sigma = 1.0;
  std::size_t payload = 6;  // 6 B payload = a 60 B frame, the smallest
  /// Plant Snort rule contents into a fifth of the flows (chain 2).
  bool plant_snort_rules = false;
  /// Open-loop offered rate: fixed, never recalibrated per run.
  double offered_mpps = 0.0;
  /// The seed a run uses when none is given, and one kept back for
  /// confirming a later claim on traffic it was not tuned on.
  std::uint64_t seed = 1;
  std::uint64_t held_out_seed = 9001;
};

/// nullptr for an unknown name.
const WorkloadDef* find_workload(std::string_view name);
std::vector<std::string_view> workload_names();

speedybox::plan::ChainSpec chain_spec(const WorkloadDef& def);

/// The workload's traffic for `seed`; `scale` multiplies the flow count
/// (1 for measurement, smaller for quick checks).
speedybox::trace::Workload generate(const WorkloadDef& def,
                                    std::uint64_t seed, double scale);

/// Every packet of a workload, materialized once into one contiguous byte
/// buffer, plus each packet's flow index.
class PacketArena {
 public:
  explicit PacketArena(const speedybox::trace::Workload& workload);

  std::size_t size() const noexcept { return flows_.size(); }
  std::size_t flow_count() const noexcept { return flow_count_; }
  std::uint32_t flow(std::size_t index) const noexcept {
    return flows_[index];
  }
  /// A fresh packet holding packet `index`'s bytes.
  speedybox::net::Packet packet(std::size_t index) const;
  std::vector<speedybox::net::Packet> packets(std::size_t begin,
                                              std::size_t end) const;
  /// Most flows open at once: a flow is open from its first packet to its
  /// last.
  std::size_t resident_flows_max() const noexcept { return resident_max_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> offsets_;  // size() + 1 entries
  std::vector<std::uint32_t> flows_;
  std::size_t flow_count_ = 0;
  std::size_t resident_max_ = 0;
};

}  // namespace wallbench
