#!/usr/bin/env bash
# Build and run the concurrency-sensitive test suites under ThreadSanitizer
# and under AddressSanitizer with UndefinedBehaviorSanitizer. TSan is the
# gate for the sharded runtime's one-writer rules (per flow, and per kept
# slot, grown only under quiesce(); DESIGN.md "Sharded runtime"), the SPSC
# ring burst hand-off, and the batch-of-one vs burst differential harness
# (test_equivalence, DESIGN.md §8); ASan backs it up on the packet-buffer
# side. UBSan runs without recovery, so the first out-of-range pointer
# arithmetic, signed overflow or misaligned load fails the address run.
#
# Usage: tools/run_sanitizers.sh [thread|address|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."

# The suites that exercise threads and shared rings. The rest of the tree
# is single-threaded and covered by the regular build. test_integration
# carries the fault-injection differential and the threaded pipeline's
# cases in both modes; test_property the overload
# conservation sweep over the 4-shard runtime; test_control the live
# resharding path (quiescence + cross-shard flow migration), and
# test_equivalence its mid-trace autoscale differential — both must be
# TSan-clean for the migration protocol to count as proven. test_io runs
# the wire-frame fuzz sweep (ASan is its real teeth) plus the loopback
# closed loop, whose TCP tests send from a second thread. test_tenancy
# hosts several sharded executors at once and byte-checks outputs across
# an arbiter-triggered mid-run shard reallocation (DESIGN.md §14).
# test_core records flows into their records on one thread while another
# consolidates, fast-paths and erases earlier ones and recycles their FIDs,
# with no lock: TSan checks that the hand-offs order every record access,
# ASan the record and slab lifetimes. Leak detection is on in the address
# run, so memory that nothing frees any more fails it.
# test_nf runs the NF unit suites, among them the Aho-Corasick
# differentials: ASan checks the flat transition table's indexing and the
# case-sensitive confirming memcmp at payload edges, UBSan the interleaved
# walk's stripe pointers.
# test_alloc replaces the global operator new to count allocations; its
# replacement forwards to malloc, which both sanitizers still intercept, so
# ASan checks the flow records' reuse of their arrays across flows.
TARGETS=(test_util test_core test_runtime test_telemetry test_integration test_equivalence test_property test_plan test_control test_io test_tenancy test_nf test_alloc)

run_one() {
  local sanitizer="$1"
  local build_dir="build-tsan"
  [ "${sanitizer}" = "address" ] && build_dir="build-asan"
  echo "=== ${sanitizer} sanitizer -> ${build_dir} ==="
  cmake -B "${build_dir}" -S . -DSPEEDYBOX_SANITIZE="${sanitizer}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "${build_dir}" -j "$(nproc)" --target "${TARGETS[@]}"
  for target in "${TARGETS[@]}"; do
    echo "--- ${sanitizer}: ${target}"
    if [ "${sanitizer}" = "thread" ]; then
      TSAN_OPTIONS="halt_on_error=1" "./${build_dir}/tests/${target}"
    else
      UBSAN_OPTIONS="print_stacktrace=1" "./${build_dir}/tests/${target}"
    fi
  done
  echo "=== ${sanitizer}: clean ==="
}

mode="${1:-all}"
case "${mode}" in
  thread|address) run_one "${mode}" ;;
  all)
    run_one thread
    run_one address
    ;;
  *)
    echo "usage: $0 [thread|address|all]" >&2
    exit 2
    ;;
esac
