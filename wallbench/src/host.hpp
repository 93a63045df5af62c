// Host fingerprint stamped on every result, so that figures from different
// hosts are labelled rather than silently compared.
#pragma once

#include <cstdint>

#include "telemetry/json.hpp"

namespace wallbench {

/// bench_method's environment_json() (cpu_ghz, git_describe,
/// hardware_concurrency) plus the online core count, a 0.1 GHz cpu band,
/// the CPU model, and whether the TSC is virtualized (the CPU reports a
/// hypervisor, so rdtsc may trap or drift).
speedybox::telemetry::Json host_fingerprint();

/// Pins the calling thread to the last CPU it may run on and returns that
/// CPU, or -1 when affinity cannot be read or set.
int pin_to_last_cpu();

/// Resident set size now, in bytes (/proc/self/statm).
std::uint64_t rss_bytes();

/// Peak resident set size of this process, in bytes (ru_maxrss).
std::uint64_t peak_rss_bytes();

}  // namespace wallbench
