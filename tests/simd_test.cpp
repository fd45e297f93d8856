// The SIMD byte kernel against the partition function it computes.
//
// crunch_bytes runs its AVX2 body where the CPU has AVX2 and its scalar
// body everywhere else, so each body is checked here on its own: against
// core::partition_value on all 65,280 ordered byte pairs with a != b,
// under both bit rules, at lengths that leave the AVX2 body a scalar tail
// (31, 33, 257) and at the full set, with a guard byte after the output.
#include "pram/simd.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/partition_fn.h"

namespace llmp {
namespace {

using Body = void (*)(const std::uint8_t*, const std::uint8_t*,
                      std::uint8_t*, std::size_t, bool);

constexpr std::uint8_t kGuard = 0xEE;

void expect_matches_partition_value(Body body, const std::string& name) {
  std::vector<std::uint8_t> a, b;
  for (unsigned x = 0; x < 256; ++x)
    for (unsigned y = 0; y < 256; ++y)
      if (x != y) {
        a.push_back(static_cast<std::uint8_t>(x));
        b.push_back(static_cast<std::uint8_t>(y));
      }
  ASSERT_EQ(a.size(), 65280u);
  for (const core::BitRule rule :
       {core::BitRule::kMostSignificant, core::BitRule::kLeastSignificant}) {
    const bool msb = rule == core::BitRule::kMostSignificant;
    for (const std::size_t len : {std::size_t{31}, std::size_t{33},
                                  std::size_t{257}, a.size()}) {
      std::vector<std::uint8_t> out(len + 1, kGuard);
      body(a.data(), b.data(), out.data(), len, msb);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(label_t{out[i]}, core::partition_value(a[i], b[i], rule))
            << name << (msb ? " msb" : " lsb") << " len=" << len
            << " a=" << int{a[i]} << " b=" << int{b[i]};
      }
      EXPECT_EQ(out[len], kGuard) << name << " wrote past len=" << len;
    }
  }
}

TEST(CrunchBytes, ScalarBodyMatchesPartitionValueOnEveryBytePair) {
  expect_matches_partition_value(pram::simd::detail::crunch_bytes_scalar,
                                 "scalar");
}

TEST(CrunchBytes, Avx2BodyMatchesPartitionValueOnEveryBytePair) {
#if LLMP_SIMD_X86
  if (!pram::simd::detail::has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  expect_matches_partition_value(pram::simd::detail::crunch_bytes_avx2,
                                 "avx2");
#else
  GTEST_SKIP() << "not an x86 build";
#endif
}

TEST(CrunchBytes, DispatchMatchesPartitionValueOnEveryBytePair) {
  expect_matches_partition_value(pram::simd::crunch_bytes, "crunch_bytes");
}

}  // namespace
}  // namespace llmp
