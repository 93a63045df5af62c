// Software prefetch hints for batch pre-passes (DESIGN.md §8).
//
// The batched executors walk a burst twice: a stateless pre-pass computes
// hashes and issues prefetches for the state the second (stateful) pass
// will touch — flow-table buckets, sketch rows, consolidated-rule objects —
// so the second pass finds them in cache instead of paying a miss per
// packet. Hints only: correctness never depends on them.
#pragma once

#include <cstddef>

namespace speedybox::util {

/// Destructive-interference (cache line) size. Fixed at 64 — the value for
/// every x86/ARM server part we target — rather than
/// std::hardware_destructive_interference_size, whose value can vary with
/// compiler flags and would make layouts ABI-fragile.
inline constexpr std::size_t kCacheLineSize = 64;

/// Prefetch for reading. No-op on compilers without __builtin_prefetch.
///
/// On x86-64 the hint is an asm statement rather than __builtin_prefetch:
/// GCC 12 at -O2 deletes the builtin as dead code when its address comes
/// out of a bounds-checked lookup, as in FlowTable::prefetch and
/// GlobalMat::prefetch, so those hints were never issued. An asm volatile
/// statement is never deleted. Both forms emit the same prefetcht0.
inline void prefetch_read(const void* address) noexcept {
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
  asm volatile("prefetcht0 (%0)" : : "r"(address));
#elif defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

/// Prefetch for writing (counter cells the stateful pass increments). On
/// x86-64 this is prefetch_read's prefetcht0, which is also what
/// __builtin_prefetch emits for a write without -mprfchw.
inline void prefetch_write(const void* address) noexcept {
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
  prefetch_read(address);
#elif defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/1, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace speedybox::util
