#include "sim_config.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "trace/payload_synth.hpp"
#include "util/logging.hpp"

namespace speedybox::tools {

void config_error(const std::string& tool, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool.c_str(), message.c_str());
  std::exit(2);
}

std::uint64_t parse_uint_flag(const std::string& tool, const char* flag,
                              const char* value, std::uint64_t min_value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < min_value) {
    config_error(tool, std::string(flag) + ": want an integer >= " +
                           std::to_string(min_value) + ", got \"" + value +
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
      "  --flows N --packets N --payload N   uniform workload shape\n"
      "  --workload NAME            uniform | datacenter | elephant-mice |\n"
      "                             sync-burst | flash-crowd | syn-flood\n"
      "                             (scenario generators scale with --flows\n"
      "                             / --payload / --seed; syn-flood pairs\n"
      "                             with a dos chain element)\n"
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
      "  --print-config             echo the effective config as JSON and\n"
      "                             exit (validates first)\n"
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
      "  --recvmmsg                 drain the live UDP socket with batched\n"
      "                             recvmmsg() — up to --rx-budget datagrams\n"
      "                             per syscall (needs --listen)\n"
      "  --tenancy FILE             host the multi-tenant spec in FILE\n"
      "                             (tenancy::HostSpec JSON) instead of one\n"
      "                             deployment; in-process by default, add\n"
      "                             --listen 0 for live per-tenant listeners\n"
      "                             (ports come from the spec)\n"
      "  --log-level LEVEL          debug|info|warn|error|off\n",
      argv0, argv0);
  std::exit(2);
}

}  // namespace

SimConfig SimConfig::parse(int argc, char** argv) {
  SimConfig config;
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chain") {
      std::string spec = need_value(i);
      std::size_t start = 0;
      while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string name =
            spec.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!name.empty()) config.chain.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--plan") {
      config.plan_file = need_value(i);
    } else if (arg == "--emit-plan") {
      config.emit_plan = need_value(i);
    } else if (arg == "--platform") {
      const std::string value = need_value(i);
      if (value == "bess") {
        config.platform = platform::PlatformKind::kBess;
      } else if (value == "onvm") {
        config.platform = platform::PlatformKind::kOnvm;
      } else {
        usage(argv[0]);
      }
      config.platform_set = true;
    } else if (arg == "--mode") {
      const std::string value = need_value(i);
      config.run_original = value == "original" || value == "both";
      config.run_speedybox = value == "speedybox" || value == "both";
      config.mode_set = true;
      if (!config.run_original && !config.run_speedybox) usage(argv[0]);
    } else if (arg == "--executor") {
      const std::string value = need_value(i);
      const auto kind = plan::parse_executor_kind(value);
      if (!kind) {
        config_error(kTool, "unknown --executor \"" + value +
                                "\" (choose one of runner, sharded, pipeline)");
      }
      config.executor = *kind;
      config.executor_set = true;
    } else if (arg == "--flows") {
      config.flows = parse_uint_flag(kTool, "--flows", need_value(i));
      config.workload_shape_set = true;
    } else if (arg == "--packets") {
      config.packets_per_flow = static_cast<std::uint32_t>(
          parse_uint_flag(kTool, "--packets", need_value(i)));
      config.workload_shape_set = true;
    } else if (arg == "--payload") {
      config.payload = parse_uint_flag(kTool, "--payload", need_value(i), 0);
      config.workload_shape_set = true;
    } else if (arg == "--datacenter") {
      config.workload = "datacenter";
    } else if (arg == "--workload") {
      config.workload = need_value(i);
    } else if (arg == "--pcap") {
      config.pcap_in = need_value(i);
    } else if (arg == "--export-pcap") {
      config.pcap_out = need_value(i);
    } else if (arg == "--fail-backend-at") {
      config.fail_backend_at = std::strtol(need_value(i), nullptr, 10);
    } else if (arg == "--shards") {
      config.shards = parse_uint_flag(kTool, "--shards", need_value(i));
    } else if (arg == "--batch-size") {
      config.batch_size = parse_uint_flag(kTool, "--batch-size",
                                          need_value(i));
      config.batch_size_set = true;
    } else if (arg == "--overload") {
      config.overload.offered_load =
          parse_double_flag(kTool, "--overload", need_value(i));
      config.overload.enabled = true;
    } else if (arg == "--drop-policy") {
      const auto policy = runtime::parse_drop_policy(need_value(i));
      if (!policy) usage(argv[0]);
      config.overload.policy = *policy;
      config.drop_policy_set = true;
    } else if (arg == "--queue-capacity") {
      config.overload.queue_capacity =
          parse_uint_flag(kTool, "--queue-capacity", need_value(i));
      config.queue_capacity_set = true;
    } else if (arg == "--autoscale") {
      config.autoscale = true;
    } else if (arg == "--slo-us") {
      config.slo_us = parse_double_flag(kTool, "--slo-us", need_value(i));
      config.autoscale_knob_set = true;
    } else if (arg == "--min-shards") {
      config.min_shards =
          parse_uint_flag(kTool, "--min-shards", need_value(i));
      config.autoscale_knob_set = true;
    } else if (arg == "--max-shards") {
      config.max_shards =
          parse_uint_flag(kTool, "--max-shards", need_value(i));
      config.autoscale_knob_set = true;
    } else if (arg == "--scale-interval") {
      config.scale_interval =
          parse_uint_flag(kTool, "--scale-interval", need_value(i));
      config.autoscale_knob_set = true;
    } else if (arg == "--inject-fault") {
      config.fault = runtime::parse_fault_spec(need_value(i));
      if (!config.fault || !config.fault->second.any()) {
        config_error(kTool,
                     "--inject-fault: malformed spec (want "
                     "\"<nf>:fail-every=N,...\" with at least one action)");
      }
    } else if (arg == "--seed") {
      config.seed = parse_uint_flag(kTool, "--seed", need_value(i), 0);
    } else if (arg == "--csv") {
      config.csv = true;
    } else if (arg == "--print-config") {
      config.print_config = true;
    } else if (arg == "--metrics-out") {
      config.metrics_out = need_value(i);
    } else if (arg == "--metrics-prom") {
      config.metrics_prom = need_value(i);
    } else if (arg == "--metrics-interval") {
      config.metrics_interval_ms = std::strtol(need_value(i), nullptr, 10);
    } else if (arg == "--trace-sample") {
      config.trace_sample = static_cast<std::uint32_t>(
          parse_uint_flag(kTool, "--trace-sample", need_value(i)));
    } else if (arg == "--listen") {
      const std::uint64_t port =
          parse_uint_flag(kTool, "--listen", need_value(i), 0);
      if (port > 65535) usage(argv[0]);
      config.listen_port = static_cast<std::uint16_t>(port);
      config.listen_set = true;
    } else if (arg == "--proto") {
      const std::string value = need_value(i);
      if (value == "udp") {
        config.listen_proto = io::IngestProto::kUdp;
      } else if (value == "tcp") {
        config.listen_proto = io::IngestProto::kTcp;
      } else if (value == "both") {
        config.listen_proto = io::IngestProto::kBoth;
      } else {
        usage(argv[0]);
      }
      config.proto_set = true;
    } else if (arg == "--rx-budget") {
      config.rx_budget = parse_uint_flag(kTool, "--rx-budget", need_value(i));
      config.rx_budget_set = true;
    } else if (arg == "--idle-timeout") {
      config.idle_timeout_ms = static_cast<long>(
          parse_uint_flag(kTool, "--idle-timeout", need_value(i)));
      config.idle_timeout_set = true;
    } else if (arg == "--recvmmsg") {
      config.use_recvmmsg = true;
      config.recvmmsg_set = true;
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
  if (config.chain.empty() && config.plan_file.empty() &&
      config.tenancy_file.empty()) {
    usage(argv[0]);
  }
  // --shards implies the sharded executor unless one was named.
  if (!config.executor_set && config.shards > 0) {
    config.executor = plan::ExecutorKind::kSharded;
  }
  return config;
}

void SimConfig::validate() const {
  if (!tenancy_file.empty()) {
    // The tenancy document owns everything per tenant (deployment,
    // workload, overload, SLO); a flag that would fight it is an error.
    if (!chain.empty() || !plan_file.empty()) {
      config_error(kTool, "--tenancy already carries every tenant's "
                          "deployment: drop --chain/--plan");
    }
    if (mode_set || executor_set || shards > 0 || platform_set) {
      config_error(kTool, "--tenancy already carries every tenant's "
                          "deployment shape: drop --mode/--executor/"
                          "--shards/--platform");
    }
    if (workload_shape_set || workload != "uniform" || !pcap_in.empty() ||
        !pcap_out.empty()) {
      config_error(kTool, "--tenancy already carries every tenant's "
                          "workload: drop --flows/--packets/--payload/"
                          "--workload/--datacenter/--pcap/--export-pcap");
    }
    if (overload.enabled || drop_policy_set || queue_capacity_set ||
        fault.has_value()) {
      config_error(kTool, "--tenancy tenants carry their own overload/fault "
                          "config in their plans: drop --overload/"
                          "--drop-policy/--queue-capacity/--inject-fault");
    }
    if (autoscale || autoscale_knob_set) {
      config_error(kTool, "--tenancy runs the SLO enforcement loop instead "
                          "of --autoscale: drop it (SLOs live in the spec)");
    }
    if (fail_backend_at >= 0) {
      config_error(kTool, "--fail-backend-at is single-deployment only");
    }
    if (!emit_plan.empty() || print_config) {
      config_error(kTool,
                   "--tenancy does not echo plans: drop "
                   "--emit-plan/--print-config");
    }
    if (listen_set && listen_port != 0) {
      config_error(kTool, "--tenancy listeners bind each tenant's own "
                          "listen_port from the spec: pass --listen 0");
    }
  }
  if (!plan_file.empty()) {
    // The plan document owns the deployment shape; a flag that would fight
    // it is an error, not a silent override.
    if (!chain.empty()) {
      config_error(kTool, "--plan already carries the chain: drop --chain");
    }
    if (mode_set) {
      config_error(kTool, "--plan already carries the mode: drop --mode");
    }
    if (executor_set || shards > 0) {
      config_error(kTool, "--plan already carries the executor shape: drop "
                          "--executor/--shards");
    }
    if (platform_set) {
      config_error(kTool,
                   "--plan already carries the platform: drop --platform");
    }
    if (batch_size_set) {
      config_error(kTool,
                   "--plan already carries the batch size: drop --batch-size");
    }
    if (overload.enabled || drop_policy_set || queue_capacity_set) {
      config_error(kTool, "--plan already carries the overload policy: drop "
                          "--overload/--drop-policy/--queue-capacity");
    }
    if (fault.has_value()) {
      config_error(kTool, "--plan already carries the fault spec: drop "
                          "--inject-fault");
    }
    if (autoscale || autoscale_knob_set) {
      config_error(kTool, "--autoscale is not expressible in a plan document "
                          "yet: drop it (or run from flags)");
    }
  }
  if (!emit_plan.empty()) {
    if (mode_set && run_original && run_speedybox) {
      config_error(kTool, "--emit-plan writes ONE deployment: pass --mode "
                          "original or --mode speedybox (default speedybox)");
    }
    if (print_config) {
      config_error(kTool,
                   "--emit-plan and --print-config both echo and exit: "
                   "pick one");
    }
  }
  if (metrics_interval_ms > 0 && metrics_out.empty()) {
    config_error(kTool, "--metrics-interval needs --metrics-out (the interval "
                        "snapshotter has nowhere to write)");
  }
  if (!pcap_in.empty() && (workload_shape_set || workload != "uniform")) {
    config_error(kTool, "--pcap replaces the generated workload: drop "
                        "--flows/--packets/--payload/--workload/--datacenter");
  }
  if (workload != "uniform" && workload != "datacenter" &&
      !trace::make_named_scenario(workload).has_value()) {
    std::string names = "uniform, datacenter";
    for (const std::string& name : trace::named_scenarios()) {
      names += ", " + name;
    }
    config_error(kTool, "unknown --workload \"" + workload +
                            "\" (choose one of " + names + ")");
  }
  if (!pcap_in.empty() && !pcap_out.empty()) {
    config_error(kTool, "--export-pcap writes the GENERATED workload; with "
                        "--pcap there is nothing to export");
  }
  if (plan_file.empty()) {
    // Executor/mode cross-checks on the flag-built deployment; the --plan
    // path re-checks these against the loaded plan in resolve_plan().
    if (fail_backend_at >= 0 && executor != plan::ExecutorKind::kRunner) {
      config_error(kTool, "--fail-backend-at needs the single-threaded runner "
                          "(mid-run control-plane actions are per-replica)");
    }
    if (shards > 0 && executor != plan::ExecutorKind::kSharded) {
      config_error(kTool, "--shards only applies to --executor sharded");
    }
    if (executor == plan::ExecutorKind::kSharded && shards == 0) {
      config_error(kTool, "--executor sharded needs --shards N");
    }
    if (autoscale && executor != plan::ExecutorKind::kSharded) {
      config_error(kTool, "--autoscale scales the flow-sharded runtime: pass "
                          "--shards N (or --executor sharded)");
    }
    if (autoscale && (run_original || !run_speedybox)) {
      config_error(kTool, "--autoscale migrates flows via the consolidated "
                          "MATs, which the original chain does not build: "
                          "pass --mode speedybox");
    }
  }
  if (!overload.enabled && (drop_policy_set || queue_capacity_set)) {
    config_error(kTool, "--drop-policy/--queue-capacity need --overload (the "
                        "gate does not exist without it)");
  }
  if (!autoscale && autoscale_knob_set) {
    config_error(kTool, "--slo-us/--min-shards/--max-shards/--scale-interval "
                        "need --autoscale (there is no controller without it)");
  }
  if (autoscale) {
    const std::size_t ceiling = max_shards == 0 ? shards : max_shards;
    if (min_shards > ceiling) {
      config_error(kTool, "--min-shards exceeds --max-shards");
    }
    if (shards < min_shards || shards > ceiling) {
      config_error(kTool, "--shards must start inside [--min-shards, "
                          "--max-shards]");
    }
  }
  if (!listen_set &&
      (proto_set || rx_budget_set || idle_timeout_set || recvmmsg_set)) {
    config_error(kTool, "--proto/--rx-budget/--idle-timeout/--recvmmsg need "
                        "--listen (they configure the live front-end, which "
                        "does not exist without it)");
  }
  if (listen_set && !tenancy_file.empty()) {
    return;  // live tenancy mode: the checks below are single-deployment
  }
  if (listen_set) {
    if (!pcap_in.empty()) {
      config_error(kTool, "--listen ingests real wire packets: --pcap would "
                          "be a second packet source (drop one of them)");
    }
    if (workload_shape_set || workload != "uniform") {
      config_error(kTool, "--listen ingests real wire packets: the workload "
                          "lives in the load generator now — drop --flows/"
                          "--packets/--payload/--workload/--datacenter (pass "
                          "them to loadgen instead)");
    }
    if (!pcap_out.empty()) {
      config_error(kTool, "--export-pcap writes the GENERATED workload; with "
                          "--listen there is nothing to export");
    }
    if (fail_backend_at >= 0) {
      config_error(kTool, "--fail-backend-at fires at a trace packet index, "
                          "which live mode does not have");
    }
    if (plan_file.empty() && run_original && run_speedybox) {
      config_error(kTool, "--listen drives ONE live data path: pass --mode "
                          "original or --mode speedybox");
    }
    if (autoscale) {
      config_error(kTool, "--autoscale is trace-driven for now; live mode "
                          "does not support it yet");
    }
  }
}

void SimConfig::resolve_plan() {
  if (!tenancy_file.empty()) return;  // per-tenant plans live in the spec
  if (!plan_file.empty()) {
    std::ifstream in(plan_file, std::ios::binary);
    if (!in) {
      config_error(kTool, "--plan: cannot read " + plan_file);
    }
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    try {
      deployment = plan::DeploymentPlan::parse(text);
      deployment->validate();
    } catch (const std::exception& error) {
      config_error(kTool, "--plan " + plan_file + ": " + error.what());
    }
  } else {
    plan::DeploymentPlan built;
    try {
      std::string joined;
      for (const std::string& token : chain) {
        if (!joined.empty()) joined += ",";
        joined += token;
      }
      built.chain = plan::ChainSpec::parse(joined, "chainsim");
      built.executor = executor;
      // For --mode both this is the speedybox leg; plan_for() re-targets
      // per run.
      built.speedybox = run_speedybox;
      built.platform = platform;
      built.batch_size = batch_size;
      built.shards = shards;
      built.overload = overload;
      built.fault = fault;
      built.validate();
    } catch (const std::exception& error) {
      config_error(kTool, error.what());
    }
    deployment = std::move(built);
  }
  // Mirror the deployment into the flag-shaped fields so the echo, the
  // reports and the run loop all read one source of truth.
  const plan::DeploymentPlan& resolved = *deployment;
  chain.clear();
  for (const nf::NfSpec& nf : resolved.chain.nfs) {
    chain.push_back(nf.to_string());
  }
  platform = resolved.platform;
  if (!plan_file.empty()) {
    run_original = !resolved.speedybox;
    run_speedybox = resolved.speedybox;
  }
  executor = resolved.executor;
  shards = resolved.shards;
  batch_size = resolved.batch_size;
  overload = resolved.overload;
  fault = resolved.fault;
  // Cross-checks that needed the resolved executor (the flag path already
  // ran them in validate()).
  if (fail_backend_at >= 0 && executor != plan::ExecutorKind::kRunner) {
    config_error(kTool,
                 std::string("--fail-backend-at needs the single-threaded "
                             "runner, but the plan chose executor \"") +
                     plan::executor_kind_name(executor) + "\"");
  }
}

plan::DeploymentPlan SimConfig::plan_for(bool speedybox) const {
  if (!deployment.has_value()) {
    config_error(kTool, "internal: plan_for() before resolve_plan()");
  }
  plan::DeploymentPlan retargeted = *deployment;
  retargeted.speedybox = speedybox;
  return retargeted;
}

std::string SimConfig::to_json() const {
  std::string json = "{";
  const auto field = [&](const char* key, const std::string& value,
                         bool quote) {
    if (json.size() > 1) json += ",";
    json += "\"";
    json += key;
    json += "\":";
    if (quote) json += "\"";
    json += value;
    if (quote) json += "\"";
  };
  std::string chain_list;
  for (const std::string& name : chain) {
    if (!chain_list.empty()) chain_list += ",";
    chain_list += "\"" + name + "\"";
  }
  field("chain", "[" + chain_list + "]", false);
  if (!plan_file.empty()) field("plan", plan_file, true);
  field("platform", platform_name(platform), true);
  field("mode",
        run_original && run_speedybox
            ? "both"
            : (run_speedybox ? "speedybox" : "original"),
        true);
  field("executor", plan::executor_kind_name(executor), true);
  if (listen_set) {
    field("listen", std::to_string(listen_port), false);
    field("proto", io::ingest_proto_name(listen_proto), true);
    field("rx_budget", std::to_string(rx_budget), false);
    field("idle_timeout_ms", std::to_string(idle_timeout_ms), false);
  } else if (pcap_in.empty()) {
    field("workload", workload, true);
    field("flows", std::to_string(flows), false);
    field("packets_per_flow", std::to_string(packets_per_flow), false);
    field("payload", std::to_string(payload), false);
    field("seed", std::to_string(seed), false);
  } else {
    field("pcap", pcap_in, true);
  }
  if (!pcap_out.empty()) field("export_pcap", pcap_out, true);
  field("shards", std::to_string(shards), false);
  field("batch_size", std::to_string(batch_size), false);
  if (fail_backend_at >= 0) {
    field("fail_backend_at", std::to_string(fail_backend_at), false);
  }
  field("autoscale", autoscale ? "true" : "false", false);
  if (autoscale) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%g", slo_us);
    field("slo_us", buffer, false);
    field("min_shards", std::to_string(min_shards), false);
    field("max_shards",
          std::to_string(max_shards == 0 ? shards : max_shards), false);
    field("scale_interval", std::to_string(scale_interval), false);
  }
  field("overload", overload.enabled ? "true" : "false", false);
  if (overload.enabled) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%g", overload.offered_load);
    field("offered_load", buffer, false);
    field("drop_policy",
          std::string(runtime::drop_policy_name(overload.policy)), true);
    field("queue_capacity", std::to_string(overload.queue_capacity), false);
  }
  if (fault.has_value()) {
    field("inject_fault", fault->first + ":" + fault->second.to_string(),
          true);
  }
  if (!metrics_out.empty()) field("metrics_out", metrics_out, true);
  if (!metrics_prom.empty()) field("metrics_prom", metrics_prom, true);
  if (metrics_interval_ms > 0) {
    field("metrics_interval_ms", std::to_string(metrics_interval_ms), false);
  }
  if (trace_sample > 0) {
    field("trace_sample", std::to_string(trace_sample), false);
  }
  json += "}";
  return json;
}

}  // namespace speedybox::tools
