#include "list/ruler_walk.h"

#include "support/bits.h"

namespace llmp::list {

bool chain_is_clean(const std::vector<index_t>& next, index_t& head,
                    index_t& tail) {
  const std::size_t n = next.size();
  if (n == 0 || n >= static_cast<std::size_t>(knil)) return false;
  // XOR every successor, knil included, then take the one knil a chain
  // has back out: what remains of the ids is the one nobody points at.
  index_t successors = 0;
  for (const index_t s : next) successors ^= s;
  const index_t first =
      bits::xor_through(static_cast<index_t>(n - 1)) ^ successors ^ knil;
  if (first >= n) return false;
  // The walk range-tests every successor and stops after n visits, so no
  // input reads out of bounds or loops it; order() accepts only a chain.
  RulerWalk walk(n, first);
  index_t last = knil;
  const bool chained =
      walk.walk(
          next.data(), [](index_t) { return true; },
          [&last](index_t v, index_t s, index_t, index_t) {
            if (s == knil) last = v;
          }) &&
      walk.order();
  if (!chained) return false;
  head = first;
  tail = last;
  return true;
}

}  // namespace llmp::list
