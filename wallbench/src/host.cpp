#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <string>

#include "bench_method.hpp"
#include "util/cycle_clock.hpp"

namespace wallbench {

using speedybox::telemetry::Json;

namespace {

/// First /proc/cpuinfo line starting with `key`, value part; empty if none.
std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? std::string{}
                                        : line.substr(colon + 2);
    }
  }
  return {};
}

}  // namespace

Json host_fingerprint() {
  Json env = speedybox::bench::environment_json();
  const double ghz = speedybox::util::CycleClock::frequency_hz() / 1e9;
  const std::string flags = cpuinfo_field("flags");
  env.set("cores", Json::integer(static_cast<std::uint64_t>(
                       sysconf(_SC_NPROCESSORS_ONLN))));
  env.set("cpu_ghz_band", Json::number(std::round(ghz * 10.0) / 10.0));
  env.set("cpu_model", Json::string(cpuinfo_field("model name")));
  env.set("tsc_virtualized",
          Json::boolean(flags.find(" hypervisor") != std::string::npos));
  return env;
}

int pin_to_last_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? last : -1;
}

std::uint64_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  in >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace wallbench
