// Parallel prefix over a linked list — the problem family this paper's
// machinery was built for (its references [9,11,13,16] are list-prefix
// papers and Han's own [7] is "an optimal linked list prefix algorithm
// on a local memory computer").
//
// Given value[v] per node and an associative operation ⊕ (a monoid — NOT
// required to be commutative), compute the inclusive prefix
//     prefix[v] = value[head] ⊕ value[suc(head)] ⊕ … ⊕ value[v]
// in list order.
//
// detail::contract is the matching-contraction kernel behind both this
// and contraction_ranking (list_ranking.h), which is its special case
// ⊕ = + over unit weights. Every round a maximal matching selects
// node-disjoint pointers; each matched tail absorbs its head's *segment
// value* (segments stay contiguous in list order, so the fold is
// order-correct even for non-commutative ⊕). A maximal matching covers
// ≥ 1/3 of the pointers (one-of-three), so O(log n) rounds suffice.
// Expansion replays the splices in reverse, handing every removed node
// the fold of everything before its segment.
//
// A round runs two counted steps that give the m_cur survivors dense ids
// and a dense successor array (a validated LinkedList), the matcher on
// that list, and one counted splice step. Its host work is O(m_cur): the
// per-node arrays are leased once per call and never refilled, one
// MatchResult serves every round, and one pass compacts the survivors in
// place and appends the round's splices to a flat log.
//
// The Monoid concept:
//   struct M { using value_type = …;
//              static value_type identity();
//              static value_type op(value_type, value_type); };
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/maximal_matching.h"
#include "list/linked_list.h"
#include "pram/arena.h"

namespace llmp::apps {

/// ⊕ = + over uint64 (prefix sums).
struct SumMonoid {
  using value_type = std::uint64_t;
  static value_type identity() { return 0; }
  static value_type op(value_type a, value_type b) { return a + b; }
};

/// ⊕ = max over uint64 (prefix maxima).
struct MaxMonoid {
  using value_type = std::uint64_t;
  static value_type identity() { return 0; }
  static value_type op(value_type a, value_type b) {
    return a < b ? b : a;
  }
};

/// Composition of affine maps x ↦ a·x + b over uint64 (mod 2^64) —
/// deliberately non-commutative, used by the tests to prove the fold
/// respects list order.
struct AffineMonoid {
  struct Affine {
    std::uint64_t a = 1, b = 0;
    bool operator==(const Affine&) const = default;
  };
  using value_type = Affine;
  static value_type identity() { return {1, 0}; }
  /// (g ∘ f)(x) = g(f(x)) where `first` applies first: list order.
  static value_type op(value_type first, value_type then) {
    return {then.a * first.a, then.a * first.b + then.b};
  }
};

struct ContractionOptions {
  core::Algorithm matcher = core::Algorithm::kMatch4;
  int i_parameter = 3;
};

template <class Monoid>
struct PrefixResult {
  std::vector<typename Monoid::value_type> prefix;  ///< inclusive, by node
  int rounds = 0;
  pram::Stats cost;
};

namespace detail {

/// The contraction kernel (header comment). On entry seg[v] is node v's
/// value; on return before[v], which the caller fills with the identity,
/// is the fold of every value strictly before v in list order. Returns the
/// number of rounds.
template <class Monoid, class Exec>
int contract(Exec& exec, const list::LinkedList& list,
             std::vector<typename Monoid::value_type>& seg,
             std::vector<typename Monoid::value_type>& before,
             const ContractionOptions& opt) {
  using T = typename Monoid::value_type;
  const std::size_t n = list.size();
  auto nxt_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& nxt = *nxt_h;  // successors in original ids
  std::copy(list.next_array().begin(), list.next_array().end(), nxt.begin());

  struct Splice {
    index_t node;    // removed node s
    index_t anchor;  // matched tail v that absorbed s
    T before;        // seg[v] at splice time: before[s's segment]
  };
  // By original id, never refilled: pos is read only where this round's
  // first step wrote it, and a node is removed once, for good.
  auto pos_h = pram::scratch<index_t>(exec, n);
  auto removed_h = pram::scratch<std::uint8_t>(exec, n);
  // By dense id: the splice step fills the matched cells, and the
  // compaction pass drains and clears them.
  auto entries_h = pram::scratch<Splice>(exec, n);
  auto has_entry_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<index_t>& pos = *pos_h;
  std::vector<std::uint8_t>& removed = *removed_h;
  std::vector<Splice>& entries = *entries_h;
  std::vector<std::uint8_t>& has_entry = *has_entry_h;

  // Survivors in dense order. Every node but the head is spliced out
  // exactly once, into log[0, logged); round_end[r] closes round r's
  // entries. The one spare cell takes the compaction pass's dead copies.
  std::vector<index_t> alive(n);
  std::iota(alive.begin(), alive.end(), index_t{0});
  std::vector<Splice> log(n);
  std::size_t logged = 0;
  std::vector<std::size_t> round_end;

  core::MatchOptions mopt;
  mopt.algorithm = opt.matcher;
  mopt.i_parameter = opt.i_parameter;
  core::MatchResult match;
  std::size_t m_cur = n;
  while (m_cur > 1) {
    exec.step(m_cur, [&](std::size_t d, auto&& mm) {
      mm.wr(pos, static_cast<std::size_t>(alive[d]),
            static_cast<index_t>(d));
    });
    std::vector<index_t> dense_next(m_cur);
    exec.step(m_cur, [&](std::size_t d, auto&& mm) {
      const index_t s = mm.rd(nxt, static_cast<std::size_t>(alive[d]));
      mm.wr(dense_next, d,
            s == knil ? knil : mm.rd(pos, static_cast<std::size_t>(s)));
    });
    const list::LinkedList cur(std::move(dense_next));
    core::maximal_matching_into(exec, cur, mopt, match);

    exec.step(m_cur, [&](std::size_t d, auto&& mm) {
      if (!match.in_matching[d]) return;
      const index_t v = alive[d];
      const index_t s = mm.rd(nxt, static_cast<std::size_t>(v));
      LLMP_DCHECK(s != knil);
      const T seg_v = mm.rd(seg, static_cast<std::size_t>(v));
      const T seg_s = mm.rd(seg, static_cast<std::size_t>(s));
      mm.wr(entries, d, Splice{s, v, seg_v});
      mm.wr(has_entry, d, std::uint8_t{1});
      mm.wr(removed, static_cast<std::size_t>(s), std::uint8_t{1});
      mm.wr(nxt, static_cast<std::size_t>(v),
            mm.rd(nxt, static_cast<std::size_t>(s)));
      mm.wr(seg, static_cast<std::size_t>(v), Monoid::op(seg_v, seg_s));
    });

    // Branch-free: a matching's choices look random to a branch
    // predictor, so a branch on them would miss on a large share of nodes.
    std::size_t kept = 0;
    for (std::size_t d = 0; d < m_cur; ++d) {
      log[logged] = entries[d];
      logged += has_entry[d];
      has_entry[d] = 0;
      const index_t v = alive[d];
      alive[kept] = v;
      kept += removed[v] == 0;
    }
    round_end.push_back(logged);
    LLMP_CHECK_MSG(kept < m_cur, "contraction made no progress");
    m_cur = kept;
  }

  // The survivor is the head (only pointer *heads* are removed, and the
  // list head is nobody's pointer head): nothing is before it. Expand in
  // reverse: the anchor is alive when s is expanded (it survived s's
  // round; if a later round removed it, that round's expansion ran).
  LLMP_CHECK(alive.front() == list.head());
  for (std::size_t r = round_end.size(); r-- > 0;) {
    const std::size_t lo = r == 0 ? 0 : round_end[r - 1];
    const Splice* spliced = log.data() + lo;
    exec.step(round_end[r] - lo, [&](std::size_t e, auto&& mm) {
      const Splice& sp = spliced[e];
      mm.wr(before, static_cast<std::size_t>(sp.node),
            Monoid::op(mm.rd(before, static_cast<std::size_t>(sp.anchor)),
                       sp.before));
    });
  }
  return static_cast<int>(round_end.size());
}

}  // namespace detail

/// Inclusive prefix of `values` along the list order of `list`.
template <class Monoid, class Exec>
PrefixResult<Monoid> list_prefix(
    Exec& exec, const list::LinkedList& list,
    const std::vector<typename Monoid::value_type>& values,
    const ContractionOptions& opt = {}) {
  using T = typename Monoid::value_type;
  const std::size_t n = list.size();
  LLMP_CHECK(values.size() == n);
  PrefixResult<Monoid> result;
  const pram::Stats start = exec.stats();

  auto seg_h = pram::scratch<T>(exec, n);
  std::vector<T>& seg = *seg_h;
  std::copy(values.begin(), values.end(), seg.begin());
  auto before_h = pram::scratch<T>(exec, n, Monoid::identity());
  std::vector<T>& before = *before_h;
  result.rounds = detail::contract<Monoid>(exec, list, seg, before, opt);

  result.prefix.assign(n, Monoid::identity());
  exec.step(n, [&](std::size_t v, auto&& mm) {
    mm.wr(result.prefix, v, Monoid::op(mm.rd(before, v), values[v]));
  });
  result.cost = exec.stats() - start;
  return result;
}

/// Sequential oracle.
template <class Monoid>
std::vector<typename Monoid::value_type> sequential_prefix(
    const list::LinkedList& list,
    const std::vector<typename Monoid::value_type>& values) {
  using T = typename Monoid::value_type;
  LLMP_CHECK(values.size() == list.size());
  std::vector<T> out(list.size(), Monoid::identity());
  T acc = Monoid::identity();
  for (index_t v = list.head(); v != knil; v = list.next(v)) {
    acc = Monoid::op(acc, values[v]);
    out[v] = acc;
  }
  return out;
}

}  // namespace llmp::apps
