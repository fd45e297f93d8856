#include "list/ruler_walk.h"

#include "support/bits.h"

namespace llmp::list {

Digest digest(const std::vector<index_t>& next) {
  // XOR every successor, knil included, then take the one knil a chain
  // has back out: what remains of the ids is the one nobody points at.
  // The same pass folds each link into one of eight lanes by its place,
  // so that eight multiplies are in flight at once.
  constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  const std::size_t n = next.size();
  const index_t* p = next.data();
  index_t successors = 0;
  std::uint64_t lane[8] = {};
  const auto fold = [&](std::size_t i, std::size_t k) {
    successors ^= p[i];
    lane[k] = (lane[k] ^ p[i]) * kMix;
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t k = 0; k < 8; ++k) fold(i + k, k);
  for (std::size_t k = 0; i < n; ++i, ++k) fold(i, k);
  std::uint64_t seed = n;
  for (const std::uint64_t l : lane) seed = (seed ^ l) * kMix;
  return {bits::xor_through(static_cast<index_t>(n - 1)) ^ successors ^ knil,
          rng::SplitMix64(seed).next()};
}

bool chain_is_clean(const std::vector<index_t>& next, index_t& head,
                    index_t& tail, std::uint64_t& seed) {
  const std::size_t n = next.size();
  if (n == 0 || n >= static_cast<std::size_t>(knil)) return false;
  const Digest d = digest(next);
  if (d.head >= n) return false;
  // The walk range-tests every successor and stops after n visits, so no
  // input reads out of bounds or loops it; order() accepts only a chain.
  RulerWalk walk(n, d.head, d.seed);
  index_t last = knil;
  const bool chained =
      walk.walk(
          next.data(), [](index_t) { return true; },
          [&last](index_t v, index_t s, index_t, index_t) {
            if (s == knil) last = v;
          }) &&
      walk.order();
  if (!chained) return false;
  head = d.head;
  tail = last;
  seed = d.seed;
  return true;
}

}  // namespace llmp::list
