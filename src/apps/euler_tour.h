// Euler-tour tree computations — the classic reduction that turns tree
// problems into the linked-list problems this paper solves (its reference
// [11], Miller–Reif parallel tree contraction, is the companion line of
// work; Tarjan–Vishkin's Euler-tour technique is the standard bridge).
//
// A rooted tree with m edges becomes a linked list of 2m directed arcs:
// the tour enters a child, walks its subtree, and returns. Every tree
// statistic below is then ONE weighted list prefix over that list —
// computed with llmp's matching-contraction prefix, i.e. ultimately with
// the paper's maximal-matching machinery:
//
//   depth[v]        prefix with +1 on down-arcs, −1 on up-arcs
//   subtree_size[v] (rank of up-arc − rank of down-arc + 1) / 2
//   preorder[v]     count of down-arcs before v's down-arc
//
// Input trees are parent arrays (parent[root] = knil). Arc lists are
// built deterministically from per-node child lists.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/list_prefix.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/types.h"

namespace llmp::apps {

/// A rooted tree given as a parent array.
struct Tree {
  std::vector<index_t> parent;  ///< parent[root] == knil
  index_t root = knil;
  std::size_t size() const { return parent.size(); }
};

/// Deterministic random tree: node i (i >= 1, in a seeded random order)
/// attaches to a uniformly random earlier node.
Tree random_tree(std::size_t n, std::uint64_t seed);

/// Degenerate shapes for edge-case coverage.
Tree path_tree(std::size_t n);   ///< a single chain (depth n−1)
Tree star_tree(std::size_t n);   ///< root with n−1 leaves

/// The Euler tour as a LinkedList of 2(n−1) arcs plus the arc metadata.
/// Arc 2e is the down-arc of edge e (parent→child of child_of[e]); arc
/// 2e+1 is the matching up-arc. For n == 1 the tour is a single dummy
/// node so the list type's n >= 1 invariant holds.
struct EulerTour {
  explicit EulerTour(list::LinkedList arc_list)
      : arcs(std::move(arc_list)) {}

  list::LinkedList arcs;
  std::vector<index_t> arc_child;   ///< the child endpoint of each arc
  std::vector<std::uint8_t> is_down;  ///< 1 = parent→child
};

/// Build the tour (sequential preprocessing — input encoding, not a
/// measured algorithm).
EulerTour build_euler_tour(const Tree& tree);

struct TreeStats {
  std::vector<std::uint64_t> depth;        ///< root has depth 0
  std::vector<std::uint64_t> subtree_size; ///< root has n
  std::vector<std::uint64_t> preorder;     ///< root has 0
  int prefix_rounds = 0;
  pram::Stats cost;
};

/// All three statistics via ONE list prefix on the tour: each arc
/// contributes packed(count = 1, downs = is_down); the inclusive prefix
/// at arc a then holds the 1-based tour position and the number of
/// down-arcs so far, from which
///
///   depth(child of down-arc) = downs − ups = 2·downs − position,
///   preorder(child)          = downs   (root stays 0),
///   subtree_size(v)          = (position(up_v) − position(down_v) + 1)/2.
template <class Exec>
TreeStats tree_statistics(Exec& exec, const Tree& tree,
                          const ContractionOptions& opt = {}) {
  const std::size_t n = tree.size();
  TreeStats out;
  out.depth.assign(n, 0);
  out.subtree_size.assign(n, 1);
  out.preorder.assign(n, 0);
  if (n <= 1) return out;
  const pram::Stats start = exec.stats();
  const EulerTour tour = build_euler_tour(tree);
  const std::size_t m = tour.arcs.size();
  LLMP_CHECK(m < (std::size_t{1} << 31));  // both fields fit 32 bits

  auto packed_h = pram::scratch<std::uint64_t>(exec, m);
  std::vector<std::uint64_t>& packed = *packed_h;
  exec.step(m, [&](std::size_t a, auto&& mm) {
    mm.wr(packed, a,
          (std::uint64_t{1} << 32) |
              static_cast<std::uint64_t>(tour.is_down[a]));
  });
  auto prefix = list_prefix<SumMonoid>(exec, tour.arcs, packed, opt);
  out.prefix_rounds = prefix.rounds;

  // Down-arc 2e and up-arc 2e+1 of the edge above child tour.arc_child[2e]
  // are adjacent ids, so one processor per edge reads both prefix cells.
  exec.step(m / 2, [&](std::size_t e, auto&& mm) {
    const std::size_t down = 2 * e, up = 2 * e + 1;
    const index_t v = tour.arc_child[down];
    const std::uint64_t pd = mm.rd(prefix.prefix, down);
    const std::uint64_t pu = mm.rd(prefix.prefix, up);
    const std::uint64_t pos_d = pd >> 32, downs_d = pd & 0xFFFFFFFFu;
    const std::uint64_t pos_u = pu >> 32;
    mm.wr(out.depth, static_cast<std::size_t>(v), 2 * downs_d - pos_d);
    mm.wr(out.preorder, static_cast<std::size_t>(v), downs_d);
    mm.wr(out.subtree_size, static_cast<std::size_t>(v),
          (pos_u - pos_d + 1) / 2);
  });
  out.subtree_size[tree.root] = n;

  out.cost = exec.stats() - start;
  return out;
}

}  // namespace llmp::apps
