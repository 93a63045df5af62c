#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "trace/payload_synth.hpp"

namespace wallbench {

namespace plan = speedybox::plan;
namespace trace = speedybox::trace;

namespace {

constexpr std::size_t kTcpFrameHeaderBytes =
    speedybox::net::kEthHeaderLen + speedybox::net::kIpv4MinHeaderLen +
    speedybox::net::kTcpHeaderLen;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// The open-loop rates are about a quarter of each workload's closed-loop
// rate on a shared 4-core host: at half, slow spells of the host tip the
// queue into saturation.
const std::array<WorkloadDef, 4> kWorkloads{{
    // A couple of thousand long-lived flows of 256 packets: 99.6% of
    // packets hit the Global MAT, and flow state fits in one core's L2.
    {.name = "chain1-fastpath",
     .flows = 2048,
     .flow_size_mu = std::log(256.5),
     .flow_size_sigma = 0.0,
     .offered_mpps = 0.25},
    // make_datacenter_workload's heavy-tailed sizes (~13 packets a flow,
    // FIN teardown); 30k flows keep ~22k open at once, well below the 50k
    // ports of MazuNat's pool (one-packet flows never release theirs) and
    // small enough for a whole open-loop pass within a run.
    {.name = "chain1-churn", .flows = 30'000, .offered_mpps = 0.1},
    // 512 B payloads with planted Snort rule content; 1/16 of the flows go
    // to the ACL'd 10.1.3.0/24.
    {.name = "chain2-ids",
     .chain = 2,
     .flows = 10'000,
     .payload = 512,
     .plant_snort_rules = true,
     .offered_mpps = 0.04},
    // chain1-churn's traffic through the flow-sharded runtime, so the two
    // rates compare directly.
    {.name = "chain1-sharded",
     .shape = Shape::kSharded,
     .flows = 30'000,
     .offered_mpps = 0.15},
}};

}  // namespace

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const WorkloadDef& def : kWorkloads) names.push_back(def.name);
  return names;
}

plan::ChainSpec chain_spec(const WorkloadDef& def) {
  return def.chain == 2 ? plan::vii_c_chain2() : plan::vii_c_chain1();
}

trace::Workload generate(const WorkloadDef& def, std::uint64_t seed,
                         double scale) {
  trace::DatacenterWorkloadConfig config;
  config.flow_count = std::max<std::size_t>(
      16, static_cast<std::size_t>(static_cast<double>(def.flows) * scale));
  config.flow_size_mu = def.flow_size_mu;
  config.flow_size_sigma = def.flow_size_sigma;
  config.payload_size = def.payload;
  config.seed = seed;
  trace::Workload workload = trace::make_datacenter_workload(config);
  if (def.plant_snort_rules) {
    trace::plant_rule_contents(workload, trace::default_snort_rules(),
                               {.match_fraction = 0.2, .seed = seed + 1});
  }
  return workload;
}

PacketArena::PacketArena(const trace::Workload& workload)
    : flow_count_(workload.flows.size()) {
  const std::size_t n = workload.packet_count();
  // Reserve the exact byte count (TCP frames: 54 header bytes + payload):
  // growing the buffer by doubling would briefly hold two copies, and
  // whether the last doubling happens depends on the seed, which would
  // leak into peak_rss_mb.
  std::size_t total_bytes = 0;
  for (const trace::TracePacket& tp : workload.order) {
    total_bytes += kTcpFrameHeaderBytes + workload.flows[tp.flow].payload.size();
  }
  bytes_.reserve(total_bytes);
  offsets_.reserve(n + 1);
  flows_.reserve(n);
  offsets_.push_back(0);
  std::vector<std::size_t> first(flow_count_, n);
  std::vector<std::size_t> last(flow_count_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const speedybox::net::Packet packet = workload.materialize(i);
    const auto bytes = packet.bytes();
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    offsets_.push_back(bytes_.size());
    const std::uint32_t flow = workload.order[i].flow;
    flows_.push_back(flow);
    first[flow] = std::min(first[flow], i);
    last[flow] = i;
  }
  // Sweep opens (+1 at a flow's first packet) and closes (-1 after its
  // last) in packet order.
  std::vector<int> delta(n + 1, 0);
  for (std::size_t f = 0; f < flow_count_; ++f) {
    if (first[f] == n) continue;
    ++delta[first[f]];
    --delta[last[f] + 1];
  }
  long open = 0;
  for (const int d : delta) {
    open += d;
    resident_max_ = std::max(resident_max_, static_cast<std::size_t>(open));
  }
}

speedybox::net::Packet PacketArena::packet(std::size_t index) const {
  return speedybox::net::Packet(std::vector<std::uint8_t>(
      bytes_.begin() + static_cast<std::ptrdiff_t>(offsets_[index]),
      bytes_.begin() + static_cast<std::ptrdiff_t>(offsets_[index + 1])));
}

std::vector<speedybox::net::Packet> PacketArena::packets(
    std::size_t begin, std::size_t end) const {
  std::vector<speedybox::net::Packet> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.push_back(packet(i));
  return out;
}

}  // namespace wallbench
