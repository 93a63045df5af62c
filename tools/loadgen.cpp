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
// byte-identical packets to the in-process drive of the same flags. Each
// destination port (--port, --tenants, --ports) gets the whole sequence,
// and the tool prints one {"loadgen":{...}} line per port.
#include <algorithm>
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
  /// Destinations, pacing and repeat; --port/--tenants fill `gen.ports`
  /// after parsing.
  io::LoadgenConfig gen;
  std::uint16_t port = 0;
  std::size_t tenants = 0;  // 0: one port per --ports entry, or --port
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
      "                         PORT..PORT+N-1, concurrently\n"
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
      config.gen.host = need_value(i);
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(uint_value(i, 1, 65535));
    } else if (arg == "--proto") {
      const std::string value = need_value(i);
      if (value == "udp") {
        config.gen.proto = io::IngestProto::kUdp;
      } else if (value == "tcp") {
        config.gen.proto = io::IngestProto::kTcp;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--rate") {
      // Comma list = one rate per tenant; a single value broadcasts.
      for (const std::string& item : split_list(need_value(i))) {
        const double rate =
            tools::parse_double_flag(kTool, "--rate", item.c_str(), false);
        if (rate < 0.0) usage(argv[0]);
        config.gen.rates_pps.push_back(rate);
      }
    } else if (arg == "--tenants") {
      config.tenants = uint_value(i);
    } else if (arg == "--ports") {
      for (const std::string& item : split_list(need_value(i))) {
        config.gen.ports.push_back(static_cast<std::uint16_t>(
            tools::parse_uint_flag(kTool, "--ports", item.c_str(), 1, 65535)));
      }
    } else if (arg == "--repeat") {
      config.gen.repeat = uint_value(i);
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
  std::vector<std::uint16_t>& ports = config.gen.ports;
  const bool port_given = given.contains("--port");
  if (!port_given && ports.empty()) usage(argv[0]);
  if (port_given && !ports.empty()) {
    tools::config_error(kTool, "--ports conflicts with --port: pass one of "
                               "them");
  }
  if (config.tenants > 0 && !ports.empty() &&
      ports.size() != config.tenants) {
    tools::config_error(kTool, "--tenants " + std::to_string(config.tenants) +
                                   " conflicts with the " +
                                   std::to_string(ports.size()) + " --ports");
  }
  // --port P with --tenants N fans to consecutive ports P..P+N-1.
  if (ports.empty()) {
    for (std::size_t i = 0; i < std::max<std::size_t>(config.tenants, 1);
         ++i) {
      const std::size_t port = config.port + i;
      if (port > 65535) {
        tools::config_error(kTool, "--tenants: tenant port " +
                                       std::to_string(port) + " out of range");
      }
      ports.push_back(static_cast<std::uint16_t>(port));
    }
  }
  const std::size_t rates = config.gen.rates_pps.size();
  if (rates > 1 && rates != ports.size()) {
    tools::config_error(kTool, "a --rate list needs --tenants or --ports: one "
                               "rate per tenant");
  }

  tools::resolve_workload(kTool, given, config.workload);
  const trace::Workload workload = config.workload.build();

  std::vector<io::LoadgenReport> reports;
  try {
    reports = io::replay_workload(workload, config.gen);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "loadgen: %s\n", error.what());
    return 1;
  }
  bool clean = true;
  for (const io::LoadgenReport& report : reports) {
    if (!report.error.empty()) {
      std::fprintf(stderr, "loadgen: port %u: %s\n", report.port,
                   report.error.c_str());
      clean = false;
      continue;
    }
    clean = clean && report.send_errors == 0;
    std::printf(
        "{\"loadgen\":{\"proto\":\"%s\",\"port\":%u,\"sent\":%llu,"
        "\"bytes\":%llu,\"send_errors\":%llu,\"elapsed_s\":%.6f,"
        "\"achieved_pps\":%.1f}}\n",
        io::ingest_proto_name(config.gen.proto), report.port,
        static_cast<unsigned long long>(report.sent),
        static_cast<unsigned long long>(report.bytes),
        static_cast<unsigned long long>(report.send_errors), report.elapsed_s,
        report.achieved_pps);
  }
  return clean ? 0 : 1;
}
