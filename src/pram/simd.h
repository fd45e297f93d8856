// The SIMD kernel of the narrowed relabel rounds.
//
// The partition function f(<a,b>) = 2k + a_k with k = msb/lsb(a XOR b)
// maps any 64-bit labels below 2·64 = 128, so every relabel round after
// the first crunches uint8 labels (core/partition_fn.h). crunch_bytes
// evaluates f over those bytes: 32 lanes at a time with AVX2 nibble-LUT
// shuffles, or one at a time in its scalar body, the only path off x86
// and on CPUs without AVX2. The choice is made once per process from
// what the CPU reports. Both bodies compute the same exact integers, so
// the choice moves only the speed; tests/simd_test.cpp checks each body
// against core::partition_value on every ordered byte pair.
//
// The 64-bit rounds evaluate f inline in the loop that reads the
// successor: a 64-bit vector kernel measured no faster than that loop
// (docs/PERF.md §17). The AVX2 body carries a per-function target
// attribute, not a global -mavx2 flag, so the binary runs on any x86-64.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define LLMP_SIMD_X86 1
#else
#define LLMP_SIMD_X86 0
#endif

namespace llmp::pram::simd {

/// out[i] = 2k + ((a[i] >> k) & 1) with k = msb (or lsb) index of
/// a[i] ^ b[i] — the matching partition function over a batch of byte
/// labels. Precondition: a[i] != b[i] for all i (guaranteed by the
/// matching partition invariant the callers maintain).
void crunch_bytes(const std::uint8_t* a, const std::uint8_t* b,
                  std::uint8_t* out, std::size_t n, bool most_significant);

namespace detail {

/// Whether this CPU runs crunch_bytes_avx2; asked once per process.
bool has_avx2();

/// The bodies crunch_bytes chooses between, declared so tests can call
/// each one. Same contract as crunch_bytes.
void crunch_bytes_scalar(const std::uint8_t* a, const std::uint8_t* b,
                         std::uint8_t* out, std::size_t n,
                         bool most_significant);
#if LLMP_SIMD_X86
/// Precondition: has_avx2().
void crunch_bytes_avx2(const std::uint8_t* a, const std::uint8_t* b,
                       std::uint8_t* out, std::size_t n,
                       bool most_significant);
#endif

}  // namespace detail

}  // namespace llmp::pram::simd
