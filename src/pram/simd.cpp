// SIMD kernel implementations + runtime dispatch. See simd.h for the
// contract: every level computes identical integers, only faster.
//
// The vector kernels avoid lane-variable shifts entirely (SSE2 has none):
// instead of (a >> k) & 1 they isolate bit k as a mask and take
// popcount(a & bit_k), and k itself is a popcount of the smeared (msb) or
// decremented-isolated (lsb) XOR. Popcount per 64-bit lane is the nibble
// shuffle-LUT on AVX2 and the SWAR add-chain on SSE2, both folded to a
// per-lane sum with the (SSE2-era) psadbw instruction.

#include "pram/simd.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define LLMP_SIMD_X86 1
#include <immintrin.h>
#else
#define LLMP_SIMD_X86 0
#endif

namespace llmp::pram::simd {

namespace {

// ---- Scalar reference (also the tail path of the vector kernels). --------

inline std::uint64_t crunch_one(std::uint64_t a, std::uint64_t b,
                                bool most_significant) {
  const std::uint64_t x = a ^ b;
  const int k = most_significant ? 63 - std::countl_zero(x)
                                 : std::countr_zero(x);
  return 2 * static_cast<std::uint64_t>(k) + ((a >> k) & 1);
}

void crunch_scalar(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, std::size_t n, bool most_significant) {
  if (most_significant) {
    for (std::size_t i = 0; i < n; ++i) out[i] = crunch_one(a[i], b[i], true);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = crunch_one(a[i], b[i], false);
  }
}

inline std::uint8_t crunch_byte_one(std::uint8_t a, std::uint8_t b,
                                    bool most_significant) {
  const unsigned x = static_cast<unsigned>(a ^ b);
  const int k = most_significant ? 31 - std::countl_zero(x)
                                 : std::countr_zero(x);
  return static_cast<std::uint8_t>(2 * k + ((a >> k) & 1));
}

void crunch_bytes_scalar(const std::uint8_t* a, const std::uint8_t* b,
                         std::uint8_t* out, std::size_t n,
                         bool most_significant) {
  if (most_significant) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = crunch_byte_one(a[i], b[i], true);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = crunch_byte_one(a[i], b[i], false);
  }
}

#if LLMP_SIMD_X86

// ---- SSE2 (baseline on x86-64). ------------------------------------------

__attribute__((target("sse2"))) inline __m128i popcount64_sse2(__m128i v) {
  const __m128i m1 = _mm_set1_epi64x(0x5555555555555555LL);
  const __m128i m2 = _mm_set1_epi64x(0x3333333333333333LL);
  const __m128i m4 = _mm_set1_epi64x(0x0f0f0f0f0f0f0f0fLL);
  v = _mm_sub_epi64(v, _mm_and_si128(_mm_srli_epi64(v, 1), m1));
  v = _mm_add_epi64(_mm_and_si128(v, m2),
                    _mm_and_si128(_mm_srli_epi64(v, 2), m2));
  v = _mm_and_si128(_mm_add_epi64(v, _mm_srli_epi64(v, 4)), m4);
  return _mm_sad_epu8(v, _mm_setzero_si128());
}

__attribute__((target("sse2"))) void crunch_sse2(
    const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
    std::size_t n, bool most_significant) {
  const __m128i one = _mm_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i x = _mm_xor_si128(va, vb);
    __m128i bit, k;
    if (most_significant) {
      __m128i s = x;
      s = _mm_or_si128(s, _mm_srli_epi64(s, 1));
      s = _mm_or_si128(s, _mm_srli_epi64(s, 2));
      s = _mm_or_si128(s, _mm_srli_epi64(s, 4));
      s = _mm_or_si128(s, _mm_srli_epi64(s, 8));
      s = _mm_or_si128(s, _mm_srli_epi64(s, 16));
      s = _mm_or_si128(s, _mm_srli_epi64(s, 32));
      bit = _mm_xor_si128(s, _mm_srli_epi64(s, 1));
      k = _mm_sub_epi64(popcount64_sse2(s), one);
    } else {
      bit = _mm_and_si128(x, _mm_sub_epi64(_mm_setzero_si128(), x));
      k = popcount64_sse2(_mm_sub_epi64(bit, one));
    }
    const __m128i dir = popcount64_sse2(_mm_and_si128(va, bit));
    const __m128i r = _mm_add_epi64(_mm_slli_epi64(k, 1), dir);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), r);
  }
  if (i < n) crunch_scalar(a + i, b + i, out + i, n - i, most_significant);
}

// ---- AVX2. ---------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i popcount64_avx2(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i m4 = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, m4);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), m4);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) void crunch_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
    std::size_t n, bool most_significant) {
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i x = _mm256_xor_si256(va, vb);
    __m256i bit, k;
    if (most_significant) {
      __m256i s = x;
      s = _mm256_or_si256(s, _mm256_srli_epi64(s, 1));
      s = _mm256_or_si256(s, _mm256_srli_epi64(s, 2));
      s = _mm256_or_si256(s, _mm256_srli_epi64(s, 4));
      s = _mm256_or_si256(s, _mm256_srli_epi64(s, 8));
      s = _mm256_or_si256(s, _mm256_srli_epi64(s, 16));
      s = _mm256_or_si256(s, _mm256_srli_epi64(s, 32));
      bit = _mm256_xor_si256(s, _mm256_srli_epi64(s, 1));
      k = _mm256_sub_epi64(popcount64_avx2(s), one);
    } else {
      bit = _mm256_and_si256(x,
                             _mm256_sub_epi64(_mm256_setzero_si256(), x));
      k = popcount64_avx2(_mm256_sub_epi64(bit, one));
    }
    const __m256i dir = popcount64_avx2(_mm256_and_si256(va, bit));
    const __m256i r = _mm256_add_epi64(_mm256_slli_epi64(k, 1), dir);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  if (i < n) crunch_scalar(a + i, b + i, out + i, n - i, most_significant);
}

// Byte lanes have no variable shifts at all, so the byte kernel is pure
// nibble-LUT shuffles: k from an msb-of-nibble table (the lsb rule first
// isolates the low bit with x & -x and takes its msb), bit_k from a
// power-of-two table indexed by k, and the direction as a compare of
// a & bit_k against zero.
__attribute__((target("avx2"))) void crunch_bytes_avx2(
    const std::uint8_t* a, const std::uint8_t* b, std::uint8_t* out,
    std::size_t n, bool most_significant) {
  // msb4[v] = index of the highest set bit of the nibble v (v = 0 unused).
  const __m256i msb4 = _mm256_setr_epi8(
      0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
      0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i pow2 = _mm256_setr_epi8(
      1, 2, 4, 8, 16, 32, 64, -128, 0, 0, 0, 0, 0, 0, 0, 0,
      1, 2, 4, 8, 16, 32, 64, -128, 0, 0, 0, 0, 0, 0, 0, 0);
  const __m256i m4 = _mm256_set1_epi8(0x0f);
  const __m256i four = _mm256_set1_epi8(4);
  const __m256i one = _mm256_set1_epi8(1);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i x = _mm256_xor_si256(va, vb);
    if (!most_significant)  // isolate the low set bit; its msb is the lsb
      x = _mm256_and_si256(x, _mm256_sub_epi8(zero, x));
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), m4);
    const __m256i lo = _mm256_and_si256(x, m4);
    const __m256i hi_is_zero = _mm256_cmpeq_epi8(hi, zero);
    const __m256i k = _mm256_blendv_epi8(
        _mm256_add_epi8(_mm256_shuffle_epi8(msb4, hi), four),
        _mm256_shuffle_epi8(msb4, lo), hi_is_zero);
    const __m256i bit = _mm256_shuffle_epi8(pow2, k);
    // dir = (a & bit_k) != 0: cmpeq gives 0xFF (== -1) on zero, so 1 +
    // mask is exactly the direction bit.
    const __m256i dir = _mm256_add_epi8(
        one, _mm256_cmpeq_epi8(_mm256_and_si256(va, bit), zero));
    const __m256i r = _mm256_add_epi8(_mm256_add_epi8(k, k), dir);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  if (i < n)
    crunch_bytes_scalar(a + i, b + i, out + i, n - i, most_significant);
}

#endif  // LLMP_SIMD_X86

// ---- Dispatch state. -----------------------------------------------------

Level env_requested_level(Level supported) {
  const char* e = std::getenv("LLMP_SIMD");
  if (e == nullptr || std::strcmp(e, "auto") == 0) return supported;
  if (std::strcmp(e, "off") == 0 || std::strcmp(e, "scalar") == 0 ||
      std::strcmp(e, "0") == 0)
    return Level::kScalar;
  if (std::strcmp(e, "sse2") == 0) return Level::kSse2;
  if (std::strcmp(e, "avx2") == 0) return Level::kAvx2;
  return supported;
}

std::atomic<int>& level_slot() {
  static std::atomic<int> slot{[] {
    const Level supported = max_supported_level();
    const Level want = env_requested_level(supported);
    return static_cast<int>(want < supported ? want : supported);
  }()};
  return slot;
}

}  // namespace

Level max_supported_level() {
#if LLMP_SIMD_X86
  static const Level lvl = [] {
    if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
    if (__builtin_cpu_supports("sse2")) return Level::kSse2;
    return Level::kScalar;
  }();
  return lvl;
#else
  return Level::kScalar;
#endif
}

Level active_level() {
  return static_cast<Level>(level_slot().load(std::memory_order_relaxed));
}

Level set_level(Level want) {
  const Level supported = max_supported_level();
  const Level lvl = want < supported ? want : supported;
  level_slot().store(static_cast<int>(lvl), std::memory_order_relaxed);
  return lvl;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

void crunch_pairs(const std::uint64_t* a, const std::uint64_t* b,
                  std::uint64_t* out, std::size_t n, bool most_significant) {
#if LLMP_SIMD_X86
  switch (active_level()) {
    case Level::kAvx2: crunch_avx2(a, b, out, n, most_significant); return;
    case Level::kSse2: crunch_sse2(a, b, out, n, most_significant); return;
    case Level::kScalar: break;
  }
#endif
  crunch_scalar(a, b, out, n, most_significant);
}

void crunch_bytes(const std::uint8_t* a, const std::uint8_t* b,
                  std::uint8_t* out, std::size_t n, bool most_significant) {
#if LLMP_SIMD_X86
  // SSE2 has no byte shuffle; only AVX2 beats the scalar loop here.
  if (active_level() == Level::kAvx2) {
    crunch_bytes_avx2(a, b, out, n, most_significant);
    return;
  }
#endif
  crunch_bytes_scalar(a, b, out, n, most_significant);
}

}  // namespace llmp::pram::simd
