// Runtime-dispatched SIMD kernels for the deterministic coin-tossing
// ("label crunching") bit tricks.
//
// The partition function f(<a,b>) = 2k + a_k with k = msb/lsb(a XOR b) is
// branch-free integer math, evaluated n times per relabel round — the
// single hottest scalar computation in Match1–4. The kernels below
// evaluate it 2 (SSE2) or 4 (AVX2) lanes at a time over contiguous pair
// buffers that the fused sweeps gather beforehand. All levels compute the
// SAME exact integers: k is recovered as popcount(smear(x)) − 1 (msb) or
// popcount((x & −x) − 1) (lsb), and the direction bit a_k as
// popcount(a & bit_k) — pure bit arithmetic with one canonical answer, so
// switching levels can never change a result, only its speed. The
// differential suite pins this down by re-running everything forced
// scalar (LLMP_SIMD=off).
//
// Dispatch: the active level starts at min(what the CPU supports, what
// LLMP_SIMD asks for: off|scalar|sse2|avx2|auto) and can be moved at
// runtime by set_level() — always clamped to CPU support, so requesting
// avx2 on a plain-SSE2 machine degrades safely. Implementations live in
// simd.cpp behind per-function target attributes; no global -mavx2 flag,
// so the binary stays runnable on any x86-64 (and the scalar path keeps
// non-x86 builds working).
#pragma once

#include <cstddef>
#include <cstdint>

namespace llmp::pram::simd {

enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Highest level this CPU can execute (compile-time capped off x86-64).
Level max_supported_level();

/// The level the kernels currently run at.
Level active_level();

/// Request a level; clamped to max_supported_level(). Returns the level
/// actually set. Not synchronized — switch between runs, not during one.
Level set_level(Level want);

const char* level_name(Level level);

/// out[i] = 2k + ((a[i] >> k) & 1) with k = msb (or lsb) index of
/// a[i] ^ b[i] — the matching partition function over a batch of pairs.
/// Precondition: a[i] != b[i] for all i (guaranteed by the matching
/// partition invariant the callers maintain).
void crunch_pairs(const std::uint64_t* a, const std::uint64_t* b,
                  std::uint64_t* out, std::size_t n, bool most_significant);

/// Byte-wide partition function for the narrowed relabel rounds: one
/// application of f maps any 64-bit labels below 2·64 = 128, so every
/// round after the first crunches uint8 labels. Computes the same
/// integers as crunch_pairs would on the widened values (nibble-LUT
/// msb/lsb on AVX2; SSE2 lacks the byte shuffle and falls back to
/// scalar). Precondition: a[i] != b[i].
void crunch_bytes(const std::uint8_t* a, const std::uint8_t* b,
                  std::uint8_t* out, std::size_t n, bool most_significant);

}  // namespace llmp::pram::simd
