// BAD: code outside src/pram/ calls a hardware intrinsic directly,
// bypassing the prefetch and SIMD wrappers (and their portable scalar
// fallbacks) in pram/prefetch.h and pram/simd.h.
// Expected: raw-intrinsic on the `__builtin_prefetch` line.
#include <cstddef>

namespace llmp::fixture {

inline void warm(const unsigned* p, std::size_t i) {
  __builtin_prefetch(p + i);
}

}  // namespace llmp::fixture
