// loadgen — replay a generated workload over loopback UDP or TCP into a
// live `chainsim --listen` (or any IngestServer). The wire-side half of
// the closed-loop smoke:
//
//   chainsim --chain nat,maglev,monitor,ipfilter --mode speedybox
//            --listen 9000 &
//   loadgen --port 9000 --workload syn-flood --rate 50000
//
// The workload flags fill a trace::WorkloadSpec with chainsim's defaults,
// and WorkloadSpec::build() makes the trace, so a live run sees
// byte-identical packets to the in-process drive of the same flags.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "io/loadgen.hpp"
#include "sim_config.hpp"
#include "trace/workload_spec.hpp"

using namespace speedybox;

namespace {

constexpr const char* kTool = "loadgen";

struct GenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  io::IngestProto proto = io::IngestProto::kUdp;
  /// One entry per tenant (one broadcast entry allowed); empty = unpaced.
  std::vector<double> rates_pps;
  std::size_t tenants = 0;            // 0 = single-destination mode
  std::vector<std::uint16_t> ports;   // explicit per-tenant ports
  std::size_t repeat = 1;
  trace::WorkloadSpec workload = tools::kToolWorkload;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s --port PORT [options]\n"
      "\n"
      "options:\n"
      "  --host ADDR            receiver address (default 127.0.0.1)\n"
      "  --proto udp|tcp        transport (default udp)\n"
      "  --rate PPS[,PPS...]    target send rate, packets/s (0 = unpaced);\n"
      "                         a comma list paces each tenant separately\n"
      "  --tenants N            fan the workload to N tenants on ports\n"
      "                         PORT..PORT+N-1 (one sender thread each)\n"
      "  --ports P1,P2,...      explicit per-tenant ports (replaces\n"
      "                         --port/--tenants)\n"
      "  --repeat N             replay the frame sequence N times\n"
      "  --workload NAME        uniform | datacenter | elephant-mice |\n"
      "                         sync-burst | flash-crowd | syn-flood\n"
      "  --flows N --packets N --payload N   workload shape (as chainsim)\n"
      "  --snort-match F        planted Snort-rule match fraction\n"
      "                         (default 0.2, as chainsim)\n"
      "  --seed N               workload seed (default 42)\n",
      argv0);
  std::exit(2);
}

/// "a,b,c" -> {"a", "b", "c"}; empty items stay, for the parsers to reject.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (std::size_t comma = list.find(','); comma != std::string::npos;
       comma = list.find(',', start)) {
    items.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  items.push_back(list.substr(start));
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  GenConfig config;
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  // The value of flag argv[i], parsed strictly.
  const auto uint_value = [&](int& i, std::uint64_t min_value = 1,
                              std::uint64_t max_value =
                                  std::numeric_limits<std::size_t>::max()) {
    const char* flag = argv[i];
    return static_cast<std::size_t>(tools::parse_uint_flag(
        kTool, flag, need_value(i), min_value, max_value));
  };
  tools::FlagSet given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    given.insert(arg);
    if (arg == "--host") {
      config.host = need_value(i);
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(uint_value(i, 1, 65535));
    } else if (arg == "--proto") {
      const std::string value = need_value(i);
      if (value == "udp") {
        config.proto = io::IngestProto::kUdp;
      } else if (value == "tcp") {
        config.proto = io::IngestProto::kTcp;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--rate") {
      // Comma list = one rate per tenant; a single value broadcasts.
      for (const std::string& item : split_list(need_value(i))) {
        const double rate =
            tools::parse_double_flag(kTool, "--rate", item.c_str(), false);
        if (rate < 0.0) usage(argv[0]);
        config.rates_pps.push_back(rate);
      }
    } else if (arg == "--tenants") {
      config.tenants = uint_value(i);
    } else if (arg == "--ports") {
      for (const std::string& item : split_list(need_value(i))) {
        config.ports.push_back(static_cast<std::uint16_t>(
            tools::parse_uint_flag(kTool, "--ports", item.c_str(), 1, 65535)));
      }
    } else if (arg == "--repeat") {
      config.repeat = uint_value(i);
    } else if (arg == "--workload") {
      config.workload.kind = need_value(i);
    } else if (arg == "--flows") {
      config.workload.flows = uint_value(i);
    } else if (arg == "--packets") {
      config.workload.packets_per_flow = static_cast<std::uint32_t>(
          uint_value(i, 1, std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--payload") {
      config.workload.payload_size = uint_value(i, 0);
    } else if (arg == "--snort-match") {
      config.workload.snort_match_fraction = tools::parse_double_flag(
          kTool, "--snort-match", need_value(i), false);
    } else if (arg == "--seed") {
      config.workload.seed = tools::parse_uint_flag(kTool, "--seed",
                                                    need_value(i), 0);
    } else {
      usage(argv[0]);
    }
  }
  const bool port_given = given.contains("--port");
  if (!port_given && config.ports.empty()) usage(argv[0]);
  if (port_given && !config.ports.empty()) {
    tools::config_error(kTool, "--ports conflicts with --port: pass one of "
                               "them");
  }
  if (config.tenants > 0 && !config.ports.empty() &&
      config.ports.size() != config.tenants) {
    tools::config_error(kTool, "--tenants " + std::to_string(config.tenants) +
                                   " conflicts with the " +
                                   std::to_string(config.ports.size()) +
                                   " --ports");
  }
  // --tenants N with --port P fans to consecutive ports P..P+N-1.
  if (config.tenants > 0 && config.ports.empty()) {
    for (std::size_t i = 0; i < config.tenants; ++i) {
      const std::size_t port = config.port + i;
      if (port > 65535) {
        tools::config_error(kTool, "--tenants: tenant port " +
                                       std::to_string(port) + " out of range");
      }
      config.ports.push_back(static_cast<std::uint16_t>(port));
    }
  }
  const bool multi_tenant = !config.ports.empty();
  if (!multi_tenant && config.rates_pps.size() > 1) {
    tools::config_error(kTool, "a --rate list needs --tenants or --ports: one "
                               "rate per tenant");
  }

  tools::resolve_workload(kTool, given, config.workload);
  const trace::Workload workload = config.workload.build();

  if (multi_tenant) {
    io::MultiTenantConfig gen;
    gen.host = config.host;
    gen.ports = config.ports;
    gen.proto = config.proto;
    gen.rates_pps = config.rates_pps;
    gen.repeat = config.repeat;
    std::vector<io::TenantLoadReport> results;
    try {
      results = io::replay_multi_tenant(workload, gen);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "loadgen: %s\n", error.what());
      return 1;
    }
    bool clean = true;
    std::uint64_t total_sent = 0;
    for (const io::TenantLoadReport& tenant : results) {
      if (!tenant.error.empty()) {
        std::fprintf(stderr, "loadgen: port %u: %s\n", tenant.port,
                     tenant.error.c_str());
        clean = false;
        continue;
      }
      total_sent += tenant.report.sent;
      clean = clean && tenant.report.send_errors == 0;
      std::printf(
          "{\"loadgen\":{\"proto\":\"%s\",\"port\":%u,\"sent\":%llu,"
          "\"bytes\":%llu,\"send_errors\":%llu,\"elapsed_s\":%.6f,"
          "\"achieved_pps\":%.1f}}\n",
          io::ingest_proto_name(config.proto), tenant.port,
          static_cast<unsigned long long>(tenant.report.sent),
          static_cast<unsigned long long>(tenant.report.bytes),
          static_cast<unsigned long long>(tenant.report.send_errors),
          tenant.report.elapsed_s, tenant.report.achieved_pps);
    }
    std::printf("{\"loadgen_total\":{\"tenants\":%zu,\"sent\":%llu}}\n",
                results.size(),
                static_cast<unsigned long long>(total_sent));
    return clean ? 0 : 1;
  }

  io::LoadgenConfig gen;
  gen.host = config.host;
  gen.port = config.port;
  gen.proto = config.proto;
  gen.rate_pps = config.rates_pps.empty() ? 0.0 : config.rates_pps[0];
  gen.repeat = config.repeat;
  io::LoadgenReport report;
  try {
    report = io::replay_workload(workload, gen);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "loadgen: %s\n", error.what());
    return 1;
  }

  std::printf(
      "{\"loadgen\":{\"proto\":\"%s\",\"sent\":%llu,\"bytes\":%llu,"
      "\"send_errors\":%llu,\"elapsed_s\":%.6f,\"achieved_pps\":%.1f}}\n",
      io::ingest_proto_name(config.proto),
      static_cast<unsigned long long>(report.sent),
      static_cast<unsigned long long>(report.bytes),
      static_cast<unsigned long long>(report.send_errors), report.elapsed_s,
      report.achieved_pps);
  return report.send_errors == 0 ? 0 : 1;
}
