// Bit-manipulation primitives used by the matching partition functions.
//
// The paper's appendix discusses two ways to find the index of the
// distinguishing bit k = max/min{ i : bit i of (a XOR b) is 1 }:
//
//   1. assume the machine has a unary→binary "convert" instruction
//      (here: compiler builtins / std::countl_zero), or
//   2. use lookup tables: isolate the lowest 1-bit with
//      c := a XOR b; c := c XOR (c-1); c := (c+1)/2 (now c is a power of
//      two, a "unary number") and convert it with a table T[c] = log2 c.
//      For the *most* significant bit the appendix composes this with a
//      bit-reversal permutation table.
//
// We implement both so the appendix's preprocessing cost (table
// construction) can be measured by bench_appendix_tables, and so the
// algorithms can be run in a mode that makes no assumptions beyond
// O(1)-time table lookup — exactly the paper's model.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "support/check.h"
#include "support/types.h"

namespace llmp::bits {

/// Index of the most significant set bit of x (bits counted from 0).
/// Precondition: x != 0.
inline int msb_index(std::uint64_t x) {
  LLMP_DCHECK(x != 0);
  return 63 - std::countl_zero(x);
}

/// Index of the least significant set bit of x. Precondition: x != 0.
inline int lsb_index(std::uint64_t x) {
  LLMP_DCHECK(x != 0);
  return std::countr_zero(x);
}

/// Isolate the lowest set bit as a power of two, exactly as the appendix
/// computes it:  c := x XOR (x-1);  c := (c+1)/2.
/// Precondition: x != 0.
inline std::uint64_t isolate_lsb(std::uint64_t x) {
  LLMP_DCHECK(x != 0);
  std::uint64_t c = x ^ (x - 1);  // ones through the lowest set bit
  return (c + 1) / 2;             // the lowest set bit itself ("unary")
}

/// 0 ^ 1 ^ ... ^ m, in closed form. XORed with every successor of a
/// chain over ids 0..m (its tail's knil included) and with knil, it leaves
/// the head: the one id nobody points at.
inline index_t xor_through(index_t m) {
  switch (m & 3u) {
    case 0: return m;
    case 1: return 1;
    case 2: return m + 1;
    default: return 0;
  }
}

/// Reverse the low `width` bits of x (the rest must be zero).
std::uint64_t reverse_bits(std::uint64_t x, int width);

/// Unary→binary conversion table (paper appendix): maps a power of two
/// 2^k, k < width, to k. The paper indexes T directly by the unary number,
/// which needs 2^width cells of which only `width` are useful; we offer
/// that faithful "direct" layout for small widths plus a De Bruijn
/// perfect-hash layout of only `width` cells for production use. Both are
/// O(1) lookup; the direct layout's construction cost is what the appendix
/// analyses (it is why p copies cannot be built in O(G(n)) time on EREW).
class UnaryToBinaryTable {
 public:
  enum class Layout { kDirect, kDeBruijn };

  /// Build a table answering queries for unary numbers 2^k, k < width.
  /// Direct layout requires width <= 28 (2^28 cells) to bound memory.
  UnaryToBinaryTable(int width, Layout layout);

  /// k for a unary input 2^k. Precondition: exactly one bit set, k < width.
  int convert(std::uint64_t unary) const;

  /// Convenience: index of the lowest set bit of x via this table.
  int lsb_index(std::uint64_t x) const { return convert(isolate_lsb(x)); }

  int width() const { return width_; }
  Layout layout() const { return layout_; }
  std::size_t cells() const { return table_.size(); }

 private:
  std::size_t slot_of(std::uint64_t unary) const;

  int width_;
  Layout layout_;
  std::uint64_t debruijn_ = 0;  // multiplier for the De Bruijn layout
  std::uint64_t mask_ = 0;      // reduce the product mod 2^table_size
  int shift_ = 0;
  std::vector<std::uint8_t> table_;
};

/// Bit-reversal permutation table for `width`-bit values (paper appendix:
/// used to reduce the MSB computation to the LSB computation). 2^width
/// cells; width <= 24 enforced.
class BitReversalTable {
 public:
  explicit BitReversalTable(int width);

  std::uint32_t reverse(std::uint32_t x) const {
    LLMP_DCHECK(x < table_.size());
    return table_[x];
  }

  int width() const { return width_; }
  std::size_t cells() const { return table_.size(); }

 private:
  int width_;
  std::vector<std::uint32_t> table_;
};

/// Appendix-faithful MSB finder: bit-reverse both operands' XOR and take
/// the LSB via the conversion table. Bundles the two tables so callers can
/// run the algorithms in "pure table lookup" mode.
class TableBitOps {
 public:
  explicit TableBitOps(int width)
      : width_(width),
        rev_(width),
        conv_(width, UnaryToBinaryTable::Layout::kDeBruijn) {}

  int width() const { return width_; }

  /// MSB index of x (x != 0, x < 2^width), computed with tables only.
  int msb_index(std::uint64_t x) const {
    LLMP_DCHECK(x != 0 && x < (std::uint64_t{1} << width_));
    std::uint32_t r = rev_.reverse(static_cast<std::uint32_t>(x));
    return width_ - 1 - conv_.lsb_index(r);
  }

  /// LSB index of x (x != 0), computed with tables only.
  int lsb_index(std::uint64_t x) const { return conv_.lsb_index(x); }

 private:
  int width_;
  BitReversalTable rev_;
  UnaryToBinaryTable conv_;
};

}  // namespace llmp::bits
