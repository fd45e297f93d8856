// Sequential baseline: greedily take every pointer whose tail is still
// free, in list order. Greedy on a path takes the first pointer of every
// free run, so it takes exactly the pointers at even distance from the
// head, and the result is maximal and in fact maximum for a path.
//
// T1 = Θ(n) — the denominator of every optimality claim (a parallel
// algorithm is optimal when p·T = O(T1)). The walk is ruler-segmented
// (list/ruler_walk.h): every node is visited once with its distance from
// its segment's ruler, marking even distances, and a second pass over
// the segments whose ruler sits at an odd distance from the head flips
// their marks. The counted cost stays one visit per node.
#pragma once

#include "core/match_result.h"
#include "list/linked_list.h"
#include "list/ruler_walk.h"
#include "pram/prefetch.h"
#include "support/check.h"

namespace llmp::core {

/// In-place entry point: reuses `r`'s buffers across warm calls.
inline void sequential_matching_into(const list::LinkedList& list,
                                     MatchResult& r) {
  r.reset();
  const std::size_t n = list.size();
  r.in_matching.resize(n);
  std::uint8_t* marks = r.in_matching.data();
  const index_t* nx = list.next_array().data();
  list::RulerWalk walk(n, list.head(), list.seed());
  // Mark v when its distance from the ruler has parity `odd` and it has a
  // pointer, pulling the successor's mark cell in ahead of its store.
  const auto mark_at = [marks, n](index_t odd) {
    return [marks, n, odd](index_t v, index_t s, index_t, index_t j) {
      marks[v] = static_cast<std::uint8_t>(((j & 1) ^ odd ^ 1) & (s != knil));
      pram::prefetch_rw(marks + (s < n ? s : v));
    };
  };
  const bool chained =
      walk.walk(nx, [](index_t) { return true; }, mark_at(0)) &&
      walk.order() &&
      walk.walk(
          nx,
          [&walk](index_t seg) { return (walk.segment(seg).offset & 1) != 0; },
          mark_at(1));
  LLMP_CHECK(chained);  // a LinkedList is one chain by construction
  r.edges = n / 2;      // the even positions but the tail's
  const std::uint64_t ops = n;
  r.cost = {ops, ops, ops, 0, 0};  // depth = time_1 = work = n
  r.phases.push_back({"walk", r.cost});
}

inline MatchResult sequential_matching(const list::LinkedList& list) {
  MatchResult r;
  sequential_matching_into(list, r);
  return r;
}

}  // namespace llmp::core
