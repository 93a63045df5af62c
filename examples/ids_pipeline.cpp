// IDS pipeline (the paper's Chain 2): IPFilter -> Snort -> Monitor.
//
// Synthesizes traffic where a fraction of flows carry payloads matching
// Snort's Pass / Alert / Log rules, runs the chain with and without
// SpeedyBox, and prints an equivalence audit of the inspection results —
// the §VII-C-1 case study as a runnable program.
//
//   $ ./ids_pipeline
#include <cstdio>
#include <memory>

#include "nf/ip_filter.hpp"
#include "nf/monitor.hpp"
#include "nf/snort_ids.hpp"
#include "runtime/runner.hpp"
#include "trace/payload_synth.hpp"

using namespace speedybox;

namespace {

struct Chain {
  std::unique_ptr<runtime::ServiceChain> chain =
      std::make_unique<runtime::ServiceChain>("ids");
  nf::SnortIds* snort = nullptr;
  nf::Monitor* monitor = nullptr;
};

Chain build_chain() {
  Chain c;
  c.chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{
      nf::AclRule::drop_dst_prefix(net::Ipv4Addr{10, 1, 7, 0}, 24)});
  c.snort = &c.chain->emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  c.monitor = &c.chain->emplace_nf<nf::Monitor>();
  return c;
}

struct Audit {
  std::vector<nf::SnortLogEntry> log;
  std::uint64_t alerts, logs, passes, drops;
};

Audit run_mode(bool speedybox, const trace::Workload& workload) {
  Chain c = build_chain();
  runtime::ChainRunner runner{
      *c.chain, {platform::PlatformKind::kBess, speedybox}};
  runner.run(workload);
  return {c.snort->log(), c.snort->alert_count(), c.snort->log_count(),
          c.snort->pass_count(), runner.stats().drops};
}

}  // namespace

int main() {
  // Datacenter-style workload; 30% of flows carry rule-matching payloads.
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 120;
  config.payload_size = 300;
  trace::Workload workload = make_datacenter_workload(config);
  trace::PayloadSynthConfig synth;
  synth.match_fraction = 0.3;
  const auto planted =
      plant_rule_contents(workload, trace::default_snort_rules(), synth);

  std::size_t planted_flows = 0;
  for (const auto p : planted) planted_flows += p >= 0;
  std::printf("IDS pipeline: IPFilter -> Snort -> Monitor\n");
  std::printf("workload: %zu flows (%zu with planted rule contents), %zu "
              "packets\n\n",
              workload.flows.size(), planted_flows, workload.packet_count());

  const Audit original = run_mode(false, workload);
  const Audit speedy = run_mode(true, workload);

  const auto show = [](const char* label, const Audit& audit) {
    std::printf("%-18s alerts=%-6llu logs=%-6llu passes=%-6llu drops=%llu\n",
                label, static_cast<unsigned long long>(audit.alerts),
                static_cast<unsigned long long>(audit.logs),
                static_cast<unsigned long long>(audit.passes),
                static_cast<unsigned long long>(audit.drops));
  };
  show("original chain:", original);
  show("with SpeedyBox:", speedy);

  const bool identical = original.log == speedy.log &&
                         original.alerts == speedy.alerts &&
                         original.logs == speedy.logs &&
                         original.passes == speedy.passes &&
                         original.drops == speedy.drops;
  std::printf("\nequivalence audit: %zu log entries compared entry-by-entry "
              "-> %s\n",
              original.log.size(), identical ? "IDENTICAL" : "MISMATCH");
  if (!original.log.empty()) {
    const auto& entry = original.log.front();
    std::printf("first entry: %s sid=%u action=%s\n",
                entry.tuple.to_string().c_str(), entry.sid,
                std::string(nf::snort_action_name(entry.action)).c_str());
  }
  return identical ? 0 : 1;
}
