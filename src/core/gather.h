// Label crunching and concatenation-by-pointer-jumping (Match3 steps 2–4,
// also Match4's fast partition path per Lemma 5).
//
// After k relabel rounds ("number crunching", Match3 step 2) every label
// fits in b_k = ceil(log2 B_k) bits, B_k the k-fold image bound of
// partition_bound_after starting at n. `gather_labels` then runs r rounds
// of
//     label[v] := label[v] ++ label[NEXT[v]];  NEXT[v] := NEXT[NEXT[v]];
// (Match3 step 3) leaving in label[v] the concatenation of the crunched
// labels of v, suc(v), …, suc^(2^r − 1)(v) — a key for a
// MatchingLookupTable whose single probe (Match3 step 4) stands in for
// w − 1 further relabel rounds, w ≤ 2^r the collapse width. The NEXT
// chain is circular, so keys are defined for every node; adjacent keys
// always differ in their leading component, and the table value is an
// iterated matching partition function, so adjacent values differ too.
#pragma once

#include <vector>

#include "core/lookup_table.h"
#include "core/partition_fn.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "support/itlog.h"

namespace llmp::core {

/// Label bound after `rounds` relabel rounds starting from addresses < n.
inline label_t bound_after_rounds(std::size_t n, int rounds) {
  label_t bound = static_cast<label_t>(n);
  for (int t = 0; t < rounds && bound > 2; ++t)
    bound = partition_bound_after(bound);
  return bound;
}

/// Run `jump_rounds` concatenation rounds over b-bit labels (bound 2^b).
/// labels[v] becomes the b·2^jump_rounds-bit key described above.
template <class Exec>
void gather_labels(Exec& exec, const list::LinkedList& list,
                   std::vector<label_t>& labels, int component_bits,
                   int jump_rounds) {
  const std::size_t n = list.size();
  LLMP_CHECK(labels.size() == n);
  LLMP_CHECK(component_bits * (1 << jump_rounds) <= 63);
  const auto& next_arr = list.next_array();
  const index_t head = list.head();

  auto nxt_h = pram::scratch<index_t>(exec, n);
  auto nxt2_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& nxt = *nxt_h;
  std::vector<index_t>& nxt2 = *nxt2_h;

  auto lbl2_h = pram::scratch<label_t>(exec, n);
  std::vector<label_t>& lbl2 = *lbl2_h;

  exec.step(n, [&](std::size_t v, auto&& m) {
    const index_t s = m.rd(next_arr, v);
    m.wr(nxt, v, s == knil ? head : s);
  });
  for (int t = 0; t < jump_rounds; ++t) {
    const int shift = component_bits << t;  // current label width in bits
    exec.step(n, [&](std::size_t v, auto&& m) {
      const index_t s = m.rd(nxt, v);
      const label_t mine = m.rd(labels, v);
      const label_t theirs = m.rd(labels, static_cast<std::size_t>(s));
      m.wr(lbl2, v, (mine << shift) | theirs);
      m.wr(nxt2, v, m.rd(nxt, static_cast<std::size_t>(s)));
    });
    labels.swap(lbl2);
    nxt.swap(nxt2);
  }
}

/// Replace every label by its table value (Match3 step 4): one step.
template <class Exec>
void lookup_labels(Exec& exec, const MatchingLookupTable& table,
                   std::vector<label_t>& labels) {
  const std::size_t n = labels.size();
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(labels, v, table.value(m.rd(labels, v)));
  });
}

}  // namespace llmp::core
