// Software prefetch that the optimizer keeps.
//
// The DES dispatch loop (des::Scheduler::fire_next) asks upcoming events
// to start loading their targets while the current event runs. Those
// addresses are loaded through two levels (a slab pool's slab table,
// then a slot). A prefetch has no visible effect, so the optimizer may
// drop it: GCC 12 at -O2 has deleted a __builtin_prefetch of such an
// address (tree-DCE). An asm volatile statement cannot be deleted, so
// every prefetch under src/ goes through here (tools/lint.py rule
// `one-prefetch`). Other targets fall back to the builtin.
#pragma once

#include <cstddef>
#include <cstdint>

namespace probemon::util {

inline constexpr std::size_t kCacheLine = 64;

/// Start loading the cache line holding `p` into every cache level.
/// Never faults, whatever `p` is; it only makes a later access cheaper.
inline void prefetch(const void* p) noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(p)));
#elif defined(__GNUC__)
  __builtin_prefetch(p);  // elsewhere: the builtin, which GCC may drop
#else
  (void)p;
#endif
}

/// Prefetch every cache line that the `bytes` bytes at `p` overlap,
/// wherever `p` sits in its line. With a constant `bytes` the loop
/// unrolls to ceil(bytes / 64) + 1 prefetches. The range may run past
/// the object `p` points into, so the addresses are formed as integers.
inline void prefetch_range(const void* p, std::size_t bytes) noexcept {
  const auto first = reinterpret_cast<std::uintptr_t>(p);
  for (std::size_t offset = 0; offset < bytes; offset += kCacheLine) {
    prefetch(reinterpret_cast<const void*>(first + offset));
  }
  prefetch(reinterpret_cast<const void*>(first + bytes - 1));
}

}  // namespace probemon::util
