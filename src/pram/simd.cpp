// The byte kernel's two bodies and the choice between them. See simd.h
// for the contract: both compute identical integers.

#include "pram/simd.h"

#include <bit>

#if LLMP_SIMD_X86
#include <immintrin.h>
#endif

namespace llmp::pram::simd {

namespace detail {

namespace {

inline std::uint8_t crunch_byte_one(std::uint8_t a, std::uint8_t b,
                                    bool most_significant) {
  const unsigned x = static_cast<unsigned>(a ^ b);
  const int k = most_significant ? 31 - std::countl_zero(x)
                                 : std::countr_zero(x);
  return static_cast<std::uint8_t>(2 * k + ((a >> k) & 1));
}

}  // namespace

bool has_avx2() {
#if LLMP_SIMD_X86
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
#else
  return false;
#endif
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

}  // namespace detail

void crunch_bytes(const std::uint8_t* a, const std::uint8_t* b,
                  std::uint8_t* out, std::size_t n, bool most_significant) {
#if LLMP_SIMD_X86
  if (detail::has_avx2()) {
    detail::crunch_bytes_avx2(a, b, out, n, most_significant);
    return;
  }
#endif
  detail::crunch_bytes_scalar(a, b, out, n, most_significant);
}

}  // namespace llmp::pram::simd
