#include "sim_config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string_view>
#include <vector>

#include "runtime/fault_injector.hpp"
#include "runtime/overload.hpp"
#include "telemetry/json.hpp"
#include "util/logging.hpp"

namespace speedybox::tools {

void config_error(const std::string& tool, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool.c_str(), message.c_str());
  std::exit(2);
}

std::uint64_t parse_uint_flag(const std::string& tool, const char* flag,
                              const char* value, std::uint64_t min_value,
                              std::uint64_t max_value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  // strtoull skips blanks and takes a sign ("-1" wraps to the maximum), so
  // the value must start with a digit.
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE || parsed < min_value || parsed > max_value) {
    std::string want = "want an integer >= " + std::to_string(min_value);
    if (max_value != std::numeric_limits<std::uint64_t>::max()) {
      want += " and <= " + std::to_string(max_value);
    }
    config_error(tool, std::string(flag) + ": " + want + ", got \"" + value +
                           "\"");
  }
  return parsed;
}

double parse_double_flag(const std::string& tool, const char* flag,
                         const char* value, bool positive) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || (positive && parsed <= 0.0)) {
    config_error(tool, std::string(flag) +
                           (positive ? ": want a number > 0, got \""
                                     : ": want a number, got \"") +
                           value + "\"");
  }
  return parsed;
}

std::string read_flag_file(const std::string& tool, const char* flag,
                           const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) config_error(tool, std::string(flag) + ": cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool write_plan(const std::string& tool, const std::string& path,
                const plan::DeploymentPlan& deployment) {
  const std::string document = deployment.dump();
  if (path == "-") {
    std::printf("%s\n", document.c_str());
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr ||
      std::fwrite(document.data(), 1, document.size(), file) !=
          document.size() ||
      std::fputc('\n', file) == EOF || std::fclose(file) != 0) {
    std::fprintf(stderr, "%s: failed to write %s\n", tool.c_str(),
                 path.c_str());
    return false;
  }
  std::fprintf(stderr, "%s: wrote plan to %s\n", tool.c_str(), path.c_str());
  return true;
}

void resolve_workload(const std::string& tool, const FlagSet& given,
                      trace::WorkloadSpec& workload) {
  try {
    workload.validate();
  } catch (const std::exception& error) {
    config_error(tool, error.what());
  }
  if (given.contains("--packets") && workload.kind != "uniform") {
    config_error(tool, "--packets needs --workload uniform: the " +
                           workload.kind + " generator shapes its own flows");
  }
  if (workload.kind != "uniform" && workload.kind != "datacenter" &&
      !given.contains("--flows")) {
    workload.flows = 0;  // the scenario's own population
  }
}

namespace {

constexpr const char* kTool = "chainsim";

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s --chain nf1,nf2,... [options]\n"
      "       %s --plan plan.json [options]\n"
      "\n"
      "NFs: nat maglev monitor heavymonitor ipfilter firewall snort\n"
      "     gateway vpn-out vpn-in dos synthetic\n"
      "Chain tokens take ':'-separated options, e.g.\n"
      "     maglev:backends=5:table=1021  ipfilter:blacklist=32\n"
      "     monitor:heavy=1  synthetic:iterations=64:access=read\n"
      "(an unknown NF or option lists the valid choices)\n"
      "\n"
      "options:\n"
      "  --plan FILE                run FROM a deployment-plan document\n"
      "                             (planopt output); the plan owns the\n"
      "                             chain/mode/executor/platform/batch/\n"
      "                             shards/overload/fault knobs, so those\n"
      "                             flags conflict with it\n"
      "  --emit-plan FILE           write the flag-built (or --plan-loaded)\n"
      "                             deployment plan as JSON and exit\n"
      "                             (\"-\" = stdout; default mode speedybox)\n"
      "  --platform bess|onvm       execution platform model (default bess)\n"
      "  --mode original|speedybox|both   which data path(s) to run\n"
      "  --executor runner|sharded|pipeline\n"
      "                             executor shape (default runner; sharded\n"
      "                             needs --shards; pipeline is the threaded\n"
      "                             ONVM deployment, one core per NF, in\n"
      "                             either mode)\n"
      "  --flows N --packets N --payload N   workload shape (--packets is\n"
      "                             for the uniform workload only)\n"
      "  --workload NAME            uniform | datacenter | elephant-mice |\n"
      "                             sync-burst | flash-crowd | syn-flood\n"
      "                             (only --flows scales a scenario's\n"
      "                             population; syn-flood pairs with a dos\n"
      "                             chain element)\n"
      "  --datacenter               alias for --workload datacenter\n"
      "  --pcap FILE                drive the chain from a pcap capture\n"
      "  --export-pcap FILE         write the generated workload as pcap\n"
      "  --fail-backend-at K        fail Maglev backend 0 before packet K\n"
      "  --shards N                 run on the flow-sharded runtime with N\n"
      "                             chain replicas (one worker thread each)\n"
      "  --batch-size N             burst size the data path drains in\n"
      "                             (default 32; 1 = packet-at-a-time)\n"
      "  --overload MULT            enable the overload gate at MULT x the\n"
      "                             data path's capacity (DESIGN.md 9)\n"
      "  --drop-policy P            tail-drop|per-flow-fair|slo-early-drop\n"
      "                             (needs --overload)\n"
      "  --queue-capacity N         bounded ingress queue, in packets\n"
      "                             (needs --overload; default 1024)\n"
      "  --autoscale                telemetry-driven elastic scaling of the\n"
      "                             sharded runtime (needs --shards and\n"
      "                             --mode speedybox; DESIGN.md 10)\n"
      "  --slo-us X                 autoscale latency objective for the\n"
      "                             windowed p99, microseconds (default 50)\n"
      "  --min-shards N             autoscale floor (default 1)\n"
      "  --max-shards N             autoscale ceiling (default: the\n"
      "                             starting --shards)\n"
      "  --scale-interval N         control-loop cadence, in dispatched\n"
      "                             packets (default 2048)\n"
      "  --inject-fault SPEC        wrap an NF in the fault injector:\n"
      "                             \"<nf>:fail-every=N,latency-every=N,\n"
      "                             latency-cycles=N,crash-at=N\"\n"
      "  --seed N                   workload seed (default 42)\n"
      "  --csv                      machine-readable one-line-per-config\n"
      "  --print-config             echo the deployment and workload\n"
      "                             documents and the run settings as JSON\n"
      "                             and exit (validates first)\n"
      "  --metrics-out FILE         append a JSON telemetry snapshot line\n"
      "  --metrics-prom FILE        write a Prometheus text snapshot\n"
      "  --metrics-interval MS      also snapshot every MS ms (JSON-lines,\n"
      "                             background thread; needs --metrics-out)\n"
      "  --trace-sample N           record full packet spans for 1-in-N\n"
      "                             flows (exported with --metrics-out)\n"
      "  --listen PORT              live mode: ingest real wire packets on\n"
      "                             127.0.0.1:PORT (0 = ephemeral; the bound\n"
      "                             port is printed at startup) instead of a\n"
      "                             generated trace; pair with the loadgen\n"
      "                             tool; needs --mode original|speedybox\n"
      "  --proto udp|tcp|both       live transport(s) to accept (default\n"
      "                             udp; needs --listen)\n"
      "  --rx-budget N              max frames drained per socket wakeup\n"
      "                             (default 64; needs --listen)\n"
      "  --idle-timeout MS          exit live mode after MS ms without\n"
      "                             traffic (default 1000; needs --listen)\n"
      "  --tenancy FILE             host the multi-tenant spec in FILE\n"
      "                             (tenancy::HostSpec JSON) instead of one\n"
      "                             deployment; in-process by default, add\n"
      "                             --listen 0 for live per-tenant listeners\n"
      "                             (ports come from the spec)\n"
      "  --log-level LEVEL          debug|info|warn|error|off\n",
      argv0, argv0);
  std::exit(2);
}

using Flags = std::vector<std::string_view>;

/// When any `subjects` flag is given, each `others` flag must be absent
/// (kConflicts) or given too (kNeeds).
struct FlagRule {
  Flags subjects;
  enum { kConflicts, kNeeds } relation;
  Flags others;
  const char* reason;
};

const Flags kOverloadFlags = {"--overload", "--drop-policy",
                              "--queue-capacity", "--inject-fault"};
const Flags kWorkloadFlags = {"--workload", "--datacenter", "--flows",
                              "--packets",  "--payload",    "--seed"};
const Flags kAutoscaleFlags = {"--autoscale", "--slo-us", "--min-shards",
                               "--max-shards", "--scale-interval"};

/// Checked in order; the first violation is the diagnostic.
const FlagRule kRules[] = {
    {{"--tenancy"}, FlagRule::kConflicts,
     {"--chain", "--plan", "--mode", "--executor", "--shards", "--platform"},
     "the tenancy document carries every tenant's deployment"},
    {{"--tenancy"}, FlagRule::kConflicts, kOverloadFlags,
     "each tenant's plan carries its own overload and fault config"},
    {{"--tenancy"}, FlagRule::kConflicts, kAutoscaleFlags,
     "the host runs its SLO enforcement loop in place of --autoscale (SLOs "
     "live in the spec)"},
    {{"--tenancy"}, FlagRule::kConflicts, kWorkloadFlags,
     "the tenancy document carries every tenant's workload"},
    {{"--tenancy"}, FlagRule::kConflicts,
     {"--pcap", "--export-pcap", "--fail-backend-at"},
     "it acts on a single deployment's trace"},
    {{"--tenancy"}, FlagRule::kConflicts, {"--emit-plan", "--print-config"},
     "there is no single plan to echo"},
    {{"--plan"}, FlagRule::kConflicts,
     {"--chain", "--mode", "--executor", "--shards", "--platform",
      "--batch-size"},
     "the plan document carries the deployment"},
    {{"--plan"}, FlagRule::kConflicts, kOverloadFlags,
     "the plan document carries the overload and fault config"},
    {{"--plan"}, FlagRule::kConflicts, kAutoscaleFlags,
     "--autoscale is not expressible in a plan document yet"},
    {{"--emit-plan"}, FlagRule::kConflicts, {"--print-config"},
     "both echo and exit"},
    {{"--pcap"}, FlagRule::kConflicts, kWorkloadFlags,
     "the capture replaces the generated workload"},
    {{"--listen"}, FlagRule::kConflicts, kWorkloadFlags,
     "the workload lives in the load generator (pass it to loadgen)"},
    {{"--pcap", "--listen"}, FlagRule::kConflicts, {"--export-pcap"},
     "there is no generated workload to export"},
    {{"--listen"}, FlagRule::kConflicts, {"--pcap"},
     "the capture would be a second packet source"},
    {{"--listen"}, FlagRule::kConflicts, {"--fail-backend-at"},
     "live mode has no trace packet index"},
    {{"--listen"}, FlagRule::kConflicts, {"--autoscale"},
     "autoscaling is trace-driven for now"},
    {{"--drop-policy", "--queue-capacity"}, FlagRule::kNeeds, {"--overload"},
     "the gate does not exist without it"},
    {{"--slo-us", "--min-shards", "--max-shards", "--scale-interval"},
     FlagRule::kNeeds, {"--autoscale"},
     "there is no controller without it"},
    {{"--autoscale"}, FlagRule::kNeeds, {"--shards"},
     "it scales the flow-sharded runtime"},
    {{"--proto", "--rx-budget", "--idle-timeout"}, FlagRule::kNeeds,
     {"--listen"},
     "it configures the live front-end, which does not exist without it"},
    {{"--metrics-interval"}, FlagRule::kNeeds, {"--metrics-out"},
     "the interval snapshotter has nowhere to write"},
};

}  // namespace

SimConfig SimConfig::parse(int argc, char** argv) {
  SimConfig config;
  plan::DeploymentPlan& deployment = config.deployment;
  trace::WorkloadSpec& workload = config.workload;
  deployment.chain.name = "chainsim";
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  // The value of flag argv[i], parsed strictly.
  const auto uint_value = [&](int& i, std::uint64_t min_value = 1,
                              std::uint64_t max_value =
                                  std::numeric_limits<std::uint64_t>::max()) {
    const char* flag = argv[i];
    return parse_uint_flag(kTool, flag, need_value(i), min_value, max_value);
  };
  const auto double_value = [&](int& i) {
    const char* flag = argv[i];
    return parse_double_flag(kTool, flag, need_value(i));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    config.given.insert(arg);
    if (arg == "--chain") {
      try {
        const plan::ChainSpec more = plan::ChainSpec::parse(need_value(i));
        deployment.chain.nfs.insert(deployment.chain.nfs.end(),
                                    more.nfs.begin(), more.nfs.end());
      } catch (const std::exception& error) {
        config_error(kTool, error.what());
      }
    } else if (arg == "--plan") {
      config.plan_file = need_value(i);
    } else if (arg == "--emit-plan") {
      config.emit_plan = need_value(i);
    } else if (arg == "--platform") {
      const std::string value = need_value(i);
      if (value != "bess" && value != "onvm") usage(argv[0]);
      deployment.platform = value == "bess" ? platform::PlatformKind::kBess
                                            : platform::PlatformKind::kOnvm;
    } else if (arg == "--mode") {
      const std::string value = need_value(i);
      if (value != "original" && value != "speedybox" && value != "both") {
        usage(argv[0]);
      }
      config.both_modes = value == "both";
      deployment.speedybox = value != "original";
    } else if (arg == "--executor") {
      const std::string value = need_value(i);
      const auto kind = plan::parse_executor_kind(value);
      if (!kind) {
        config_error(kTool, "unknown --executor \"" + value +
                                "\" (choose one of runner, sharded, pipeline)");
      }
      deployment.executor = *kind;
    } else if (arg == "--flows") {
      workload.flows = uint_value(i);
    } else if (arg == "--packets") {
      workload.packets_per_flow = static_cast<std::uint32_t>(
          uint_value(i, 1, std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--payload") {
      workload.payload_size = uint_value(i, 0);
    } else if (arg == "--datacenter") {
      workload.kind = "datacenter";
    } else if (arg == "--workload") {
      workload.kind = need_value(i);
    } else if (arg == "--pcap") {
      config.pcap_in = need_value(i);
    } else if (arg == "--export-pcap") {
      config.pcap_out = need_value(i);
    } else if (arg == "--fail-backend-at") {
      config.fail_backend_at = uint_value(i, 0);
    } else if (arg == "--shards") {
      deployment.shards = uint_value(i);
    } else if (arg == "--batch-size") {
      deployment.batch_size = uint_value(i);
    } else if (arg == "--overload") {
      deployment.overload.offered_load = double_value(i);
      deployment.overload.enabled = true;
    } else if (arg == "--drop-policy") {
      const auto policy = runtime::parse_drop_policy(need_value(i));
      if (!policy) usage(argv[0]);
      deployment.overload.policy = *policy;
    } else if (arg == "--queue-capacity") {
      deployment.overload.queue_capacity = uint_value(i);
    } else if (arg == "--autoscale") {
      config.autoscale = true;
    } else if (arg == "--slo-us") {
      config.slo_us = double_value(i);
    } else if (arg == "--min-shards") {
      config.min_shards = uint_value(i);
    } else if (arg == "--max-shards") {
      config.max_shards = uint_value(i);
    } else if (arg == "--scale-interval") {
      config.scale_interval = uint_value(i);
    } else if (arg == "--inject-fault") {
      deployment.fault = runtime::parse_fault_spec(need_value(i));
      if (!deployment.fault || !deployment.fault->second.any()) {
        config_error(kTool,
                     "--inject-fault: malformed spec (want "
                     "\"<nf>:fail-every=N,...\" with at least one action)");
      }
    } else if (arg == "--seed") {
      workload.seed = uint_value(i, 0);
    } else if (arg == "--csv") {
      config.csv = true;
    } else if (arg == "--print-config") {
      config.print_config = true;
    } else if (arg == "--metrics-out") {
      config.metrics_out = need_value(i);
    } else if (arg == "--metrics-prom") {
      config.metrics_prom = need_value(i);
    } else if (arg == "--metrics-interval") {
      config.metrics_interval_ms = uint_value(i, 0);
    } else if (arg == "--trace-sample") {
      config.trace_sample = static_cast<std::uint32_t>(
          uint_value(i, 1, std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--listen") {
      config.listen = true;
      config.ingest.port =
          static_cast<std::uint16_t>(uint_value(i, 0, 65535));
    } else if (arg == "--proto") {
      const std::string value = need_value(i);
      if (value == "udp") {
        config.ingest.proto = io::IngestProto::kUdp;
      } else if (value == "tcp") {
        config.ingest.proto = io::IngestProto::kTcp;
      } else if (value == "both") {
        config.ingest.proto = io::IngestProto::kBoth;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--rx-budget") {
      config.ingest.rx_budget = uint_value(i);
    } else if (arg == "--idle-timeout") {
      config.ingest.idle_timeout_ms =
          static_cast<int>(uint_value(i, 1, std::numeric_limits<int>::max()));
    } else if (arg == "--tenancy") {
      config.tenancy_file = need_value(i);
    } else if (arg == "--log-level") {
      const auto level = util::parse_log_level(need_value(i));
      if (!level) usage(argv[0]);
      util::set_log_level(*level);
    } else {
      usage(argv[0]);
    }
  }
  const FlagSet& given = config.given;
  if (!given.contains("--chain") && !given.contains("--plan") &&
      !given.contains("--tenancy")) {
    usage(argv[0]);
  }
  // --shards implies the sharded executor unless one was named.
  if (given.contains("--shards") && !given.contains("--executor")) {
    deployment.executor = plan::ExecutorKind::kSharded;
  }
  // Without --mode a flag-built run drives both data paths; a plan, loaded
  // or emitted, holds one.
  if (!given.contains("--mode")) {
    config.both_modes =
        !given.contains("--plan") && !given.contains("--emit-plan");
  }
  if (config.max_shards == 0) config.max_shards = deployment.shards;
  return config;
}

void SimConfig::validate() const {
  for (const FlagRule& rule : kRules) {
    for (const std::string_view subject : rule.subjects) {
      if (!given.contains(subject)) continue;
      for (const std::string_view other : rule.others) {
        const bool needs = rule.relation == FlagRule::kNeeds;
        if (given.contains(other) == needs) continue;
        config_error(kTool, std::string(subject) +
                                (needs ? " needs " : " conflicts with ") +
                                std::string(other) + ": " + rule.reason);
      }
    }
  }
  // Rules on flag values, not just on which flags were given.
  if (given.contains("--emit-plan") && both_modes) {
    config_error(kTool, "--emit-plan conflicts with --mode both: a plan "
                        "holds one deployment (pass --mode original or "
                        "--mode speedybox)");
  }
  if (listen && tenancy_file.empty() && both_modes) {
    config_error(kTool, "--listen needs --mode original or --mode "
                        "speedybox: live mode drives one data path");
  }
  if (listen && ingest.port != 0 && !tenancy_file.empty()) {
    config_error(kTool, "--tenancy needs --listen 0: each tenant's listener "
                        "binds the listen_port in the spec");
  }
  if (autoscale && (both_modes || !deployment.speedybox)) {
    config_error(kTool, "--autoscale needs --mode speedybox: it migrates "
                        "flows via the consolidated MATs, which the original "
                        "chain does not build");
  }
  if (autoscale && min_shards > max_shards) {
    config_error(kTool, "--min-shards exceeds --max-shards");
  }
  if (autoscale &&
      (deployment.shards < min_shards || deployment.shards > max_shards)) {
    config_error(kTool,
                 "--shards must start inside [--min-shards, --max-shards]");
  }
}

void SimConfig::resolve_plan() {
  if (!tenancy_file.empty()) return;  // per-tenant plans live in the spec
  try {
    if (!plan_file.empty()) {
      deployment = plan::DeploymentPlan::parse(
          read_flag_file(kTool, "--plan", plan_file));
    }
    deployment.validate();
  } catch (const std::exception& error) {
    config_error(kTool,
                 (plan_file.empty() ? "" : "--plan " + plan_file + ": ") +
                     error.what());
  }
  resolve_workload(kTool, given, workload);
  if (fail_backend_at.has_value() &&
      deployment.executor != plan::ExecutorKind::kRunner) {
    config_error(kTool,
                 std::string("--fail-backend-at needs the runner executor "
                             "(mid-run control-plane actions are "
                             "per-replica), but the deployment runs on \"") +
                     plan::executor_kind_name(deployment.executor) + "\"");
  }
}

plan::DeploymentPlan SimConfig::plan_for(bool speedybox) const {
  plan::DeploymentPlan retargeted = deployment;
  retargeted.speedybox = speedybox;
  return retargeted;
}

std::string SimConfig::to_json() const {
  using telemetry::Json;
  Json json = Json::object();
  if (!plan_file.empty()) json.set("plan", Json::string(plan_file));
  json.set("deployment", deployment.to_json());
  json.set("mode", Json::string(both_modes            ? "both"
                                : deployment.speedybox ? "speedybox"
                                                       : "original"));
  if (listen) {
    json.set("listen", Json::object()
                           .set("port", Json::integer(ingest.port))
                           .set("proto", Json::string(io::ingest_proto_name(
                                             ingest.proto)))
                           .set("rx_budget", Json::integer(ingest.rx_budget))
                           .set("idle_timeout_ms",
                                Json::integer(ingest.idle_timeout_ms)));
  } else if (!pcap_in.empty()) {
    json.set("pcap", Json::string(pcap_in));
  } else {
    json.set("workload", workload.to_json());
  }
  if (!pcap_out.empty()) json.set("export_pcap", Json::string(pcap_out));
  if (fail_backend_at.has_value()) {
    json.set("fail_backend_at", Json::integer(*fail_backend_at));
  }
  if (autoscale) {
    json.set("autoscale", Json::object()
                              .set("slo_us", Json::number(slo_us))
                              .set("min_shards", Json::integer(min_shards))
                              .set("max_shards", Json::integer(max_shards))
                              .set("scale_interval",
                                   Json::integer(scale_interval)));
  }
  if (!metrics_out.empty()) json.set("metrics_out", Json::string(metrics_out));
  if (!metrics_prom.empty()) {
    json.set("metrics_prom", Json::string(metrics_prom));
  }
  if (metrics_interval_ms > 0) {
    json.set("metrics_interval_ms", Json::integer(metrics_interval_ms));
  }
  if (trace_sample > 0) json.set("trace_sample", Json::integer(trace_sample));
  return json.dump();
}

}  // namespace speedybox::tools
