#include "apps/list_ranking.h"

#include "list/ruler_walk.h"
#include "pram/prefetch.h"
#include "support/check.h"

namespace llmp::apps {

std::vector<std::uint64_t> sequential_ranking(const list::LinkedList& list) {
  const std::size_t n = list.size();
  std::vector<std::uint64_t> rank(n);
  // The ruler walk leaves (segment, distance from its ruler) in each rank;
  // once the segments know their offsets from the head, one streaming
  // pass turns that into the rank n-1-position.
  std::uint64_t* rk = rank.data();
  list::RulerWalk walk(n, list.head(), list.seed());
  const bool chained =
      walk.walk(
          list.next_array().data(), [](index_t) { return true; },
          [rk, n](index_t v, index_t s, index_t seg, index_t j) {
            rk[v] = std::uint64_t{seg} << 32 | j;
            pram::prefetch_rw(rk + (s < n ? s : v));
          }) &&
      walk.order();
  LLMP_CHECK(chained);  // a LinkedList is one chain by construction
  const std::uint64_t last = static_cast<std::uint64_t>(n) - 1;
  for (std::uint64_t& r : rank) {
    const index_t seg = static_cast<index_t>(r >> 32);
    r = last - walk.segment(seg).offset - (r & 0xFFFFFFFFu);
  }
  return rank;
}

}  // namespace llmp::apps
