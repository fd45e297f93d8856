// Software-prefetch seam.
//
// This header is the ONLY place in the tree allowed to spell
// __builtin_prefetch (enforced by llmp_lint's raw-intrinsic rule): every
// pointer-chasing sweep in core/ and apps/ hints the cache through these
// wrappers and reads its look-ahead from kPrefetchDistance.
//
// Prefetching matters exactly where the PRAM model says it shouldn't: the
// relabel / pointer-doubling sweeps read a[next[v]] for a random-ish next,
// so at list sizes past the last-level cache every element is a ~100ns
// miss. Issuing the load kPrefetchDistance iterations early overlaps that
// miss with useful work. Three sweeps do it: the narrowed relabel rounds
// (core/partition_fn.h), the predecessor scatter (core/match_result.h)
// and Wyllie's jump rounds (apps/list_ranking.h).
#pragma once

#include <cstddef>

namespace llmp::pram {

/// Elements of look-ahead in the prefetching sweeps.
inline constexpr std::size_t kPrefetchDistance = 16;

/// Hint a future read of *p. Safe on any address; no-op off GCC/Clang.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Hint a future write of *p.
inline void prefetch_rw(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace llmp::pram
