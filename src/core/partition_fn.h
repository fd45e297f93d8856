// Matching partition functions (paper §2, Lemmas 1–2).
//
// A function m is a *matching partition function* when
// m(a,b) != m(b,c) whenever a != b or b != c: labeling every pointer
// <a, suc(a)> of a linked list with m(a, suc(a)) then partitions the
// pointers into classes in which no two pointers share a node — matching
// sets. The paper's function is
//
//     f(<a,b>) = 2k + a_k,   k = max{ i : bit i of (a XOR b) is 1 },
//
// where a_k (whether the tail's distinguishing bit is set) doubles as the
// forward/backward direction of the pointer across the bisecting line of
// Fig. 2. The variant with k = min{...} (used in [6,15] and in Cole–
// Vishkin's deterministic coin tossing) trades the bisection intuition for
// cheaper evaluation; both are implemented and proven equivalent in the
// tests (both are matching partition functions; their set counts match the
// same bound).
//
// Applying f once maps labels < B to labels < 2·ceil(log2 B) (Lemma 1:
// addresses < n give at most 2 log n matching sets). Re-applying f to the
// labels coarsens the partition (Lemma 2: f^(k) yields 2·log^(k−1) n·
// (1+o(1)) sets) and reaches the fixed point B = 6 after ~G(n) rounds,
// where labels take values in {0..5} and adjacent pointers still differ —
// the basis of Match1 and of the 6→3 coloring in apps/.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/fanout.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "pram/sweep.h"
#include "support/bits.h"
#include "support/check.h"
#include "support/types.h"

namespace llmp::core {

enum class BitRule {
  kMostSignificant,   // the paper's f: k = msb(a XOR b) (Fig. 2 intuition)
  kLeastSignificant,  // the [6,15]/[3] variant: k = lsb(a XOR b)
};

/// f(<a,b>) = 2k + a_k. Precondition: a != b.
inline label_t partition_value(label_t a, label_t b, BitRule rule) {
  LLMP_DCHECK(a != b);
  const label_t x = a ^ b;
  const int k = rule == BitRule::kMostSignificant ? bits::msb_index(x)
                                                  : bits::lsb_index(x);
  return 2 * static_cast<label_t>(k) + ((a >> k) & 1);
}

/// Upper bound on f's value when both arguments are < `input_bound`:
/// one application maps [0, B) into [0, 2·ceil(log2 B)). The fixed point
/// is 6 — the constant label alphabet Match1 cuts on.
label_t partition_bound_after(label_t input_bound);

/// The fixed-point alphabet size: labels no longer shrink once < 6.
inline constexpr label_t kFixedPointBound = 6;

/// Relabel rounds needed to reach the fixed point (< 6) from addresses
/// < n — the iteration count of Match1 step 2, Θ(G(n)).
inline int rounds_to_constant(std::size_t n) {
  label_t bound = static_cast<label_t>(n);
  int rounds = 0;
  while (bound > kFixedPointBound) {
    bound = partition_bound_after(bound);
    ++rounds;
  }
  return rounds;
}

namespace detail {
/// Fused relabel kernel over [lo, hi), bit-identical to the per-element
/// step body it replaces; the successor's label is prefetched
/// kPrefetchDistance elements ahead of the pointer chase. The label type
/// is templated so multi-round callers keep intermediate labels in uint8
/// (one application of f lands below 2·64 = 128 whatever the input, since
/// k <= 63), shrinking the random-gather working set 8x. A 64-bit source
/// (the first round) evaluates f in the loop that reads the successor; a
/// byte source gathers 256-label blocks for the SIMD byte kernel.
template <class SrcT, class DstT>
inline void relabel_span_t(const index_t* nx, const SrcT* src, DstT* dst,
                           std::size_t lo, std::size_t hi, index_t head,
                           BitRule rule) {
  constexpr std::size_t dist = pram::kPrefetchDistance;
  if constexpr (std::is_same_v<SrcT, label_t>) {
    static_assert(std::is_same_v<DstT, std::uint8_t>);
    for (std::size_t v = lo; v < hi; ++v) {
      if (v + dist < hi) {
        const index_t pf = nx[v + dist];
        pram::prefetch_ro(src + (pf == knil ? head : pf));
      }
      const index_t raw = nx[v];
      dst[v] = static_cast<DstT>(
          partition_value(src[v], src[raw == knil ? head : raw], rule));
    }
  } else {
    constexpr std::size_t kBlock = 256;
    const bool msb = rule == BitRule::kMostSignificant;
    SrcT bbuf[kBlock];
    for (std::size_t base = lo; base < hi; base += kBlock) {
      const std::size_t len = std::min(kBlock, hi - base);
      for (std::size_t i = 0; i < len; ++i) {
        if (i + dist < len) {
          const index_t pf = nx[base + i + dist];
          pram::prefetch_ro(src + (pf == knil ? head : pf));
        }
        const index_t raw = nx[base + i];
        bbuf[i] = src[raw == knil ? head : raw];
      }
      if constexpr (std::is_same_v<DstT, std::uint8_t>) {
        pram::simd::crunch_bytes(src + base, bbuf, dst + base, len, msb);
      } else {
        std::uint8_t narrow[kBlock];
        pram::simd::crunch_bytes(src + base, bbuf, narrow, len, msb);
        for (std::size_t i = 0; i < len; ++i)
          dst[base + i] = static_cast<DstT>(narrow[i]);
      }
    }
  }
}

/// Round-1 kernel for labels that ARE the node addresses (the state right
/// after init_address_labels): in[v] = v and in[suc(v)] = suc(v), so both
/// operands of f come straight from the loop counter and the streamed
/// next array — the round needs no random access at all.
template <class DstT>
inline void relabel_addresses_span(const index_t* nx, DstT* dst,
                                   std::size_t lo, std::size_t hi,
                                   index_t head, BitRule rule) {
  for (std::size_t v = lo; v < hi; ++v) {
    const index_t raw = nx[v];
    dst[v] = static_cast<DstT>(
        partition_value(static_cast<label_t>(v),
                        static_cast<label_t>(raw == knil ? head : raw), rule));
  }
}

/// Fused driver for `rounds` >= 2 consecutive relabel steps. The first
/// round crunches the caller's 64-bit labels into a uint8 shadow, the
/// middle rounds ping-pong uint8 -> uint8 (the random gather then touches
/// an n-byte array instead of an 8n-byte one — at sizes beyond cache this
/// is where the relabel wall time goes), and the last round widens back
/// into `labels`. Values are bit-identical to iterating relabel(): every
/// post-first-round label fits uint8 because f(a,b) = 2k + a_k <= 127.
/// Charges exactly one sweep (= one legacy step) per round.
template <class Exec>
void narrow_relabel_rounds(Exec& exec, const list::LinkedList& list,
                           std::vector<label_t>& labels, int rounds,
                           BitRule rule, bool labels_are_addresses) {
  LLMP_DCHECK(rounds >= 2);
  const std::size_t n = list.size();
  const index_t* nx = list.next_array().data();
  const index_t head = list.head();
  auto shadow_h = pram::scratch<std::uint8_t>(exec, n);
  auto shadow2_h = pram::scratch<std::uint8_t>(exec, n);
  std::uint8_t* cur = (*shadow_h).data();
  std::uint8_t* nxt_buf = (*shadow2_h).data();
  if (labels_are_addresses) {
    std::uint8_t* dst = cur;
    exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
      relabel_addresses_span(nx, dst, lo, hi, head, rule);
    });
  } else {
    const label_t* src = labels.data();
    std::uint8_t* dst = cur;
    exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
      relabel_span_t(nx, src, dst, lo, hi, head, rule);
    });
  }
  for (int r = 1; r + 1 < rounds; ++r) {
    const std::uint8_t* src = cur;
    std::uint8_t* dst = nxt_buf;
    exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
      relabel_span_t(nx, src, dst, lo, hi, head, rule);
    });
    std::swap(cur, nxt_buf);
  }
  {
    const std::uint8_t* src = cur;
    label_t* dst = labels.data();
    exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
      relabel_span_t(nx, src, dst, lo, hi, head, rule);
    });
  }
}
}  // namespace detail

/// One synchronous relabel step over the whole (circularly closed) list:
/// out[v] = f(in[v], in[suc(v)]). One PRAM step, n processors, EREW-illegal
/// only in that each cell is read by its own and its predecessor's
/// processor — i.e. it is CREW (the machine tests pin this down).
template <class Exec>
void relabel(Exec& exec, const list::LinkedList& list,
             const std::vector<label_t>& in, std::vector<label_t>& out,
             BitRule rule) {
  LLMP_CHECK(in.size() == list.size());
  LLMP_CHECK(out.size() == list.size());
  const std::size_t n = list.size();
  const auto& next = list.next_array();
  const index_t head = list.head();
  exec.step(n, [&](std::size_t v, auto&& m) {
    const index_t raw = m.rd(next, v);
    const index_t s = raw == knil ? head : raw;
    const label_t a = m.rd(in, v);
    const label_t b = m.rd(in, static_cast<std::size_t>(s));
    m.wr(out, v, partition_value(a, b, rule));
  });
}

/// EREW relabel: two steps — fan the successor labels into per-node
/// inboxes (exclusive writes), then combine locally (exclusive reads).
/// Same result as relabel(); costs one extra step and one extra array.
template <class Exec>
void relabel_erew(Exec& exec, const list::LinkedList& list,
                  const std::vector<index_t>& pred,
                  const std::vector<label_t>& in, std::vector<label_t>& out,
                  std::vector<label_t>& inbox, BitRule rule) {
  const std::size_t n = list.size();
  LLMP_CHECK(in.size() == n && out.size() == n && inbox.size() == n);
  pull_from_next(exec, list, pred, in, inbox, /*circular=*/true);
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(out, v, partition_value(m.rd(in, v), m.rd(inbox, v), rule));
  });
}

/// Assign initial labels: the node's own address (paper Match1 step 1).
template <class Exec>
void init_address_labels(Exec& exec, std::size_t n,
                         std::vector<label_t>& labels) {
  labels.assign(n, 0);
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(labels, v, static_cast<label_t>(v));
  });
}

/// Iterate `rounds` relabel steps (computing f^(rounds+1)); labels must
/// start pairwise-distinct-adjacent (addresses qualify). Uses an internal
/// scratch buffer; `labels` holds the result.
/// `labels_are_addresses` asserts the caller just ran init_address_labels
/// and has not touched `labels` since — the fused first round then skips
/// its gather entirely (the operands are the loop counter and the streamed
/// next array). Results are identical either way.
template <class Exec>
void relabel_rounds(Exec& exec, const list::LinkedList& list,
                    std::vector<label_t>& labels, int rounds, BitRule rule,
                    bool labels_are_addresses = false) {
  // A lone node is its own circular successor and would take kno_label;
  // like reduce_to_constant, leave a one-node list's label alone.
  if (list.size() <= 1) return;
  if constexpr (pram::has_sweep_v<Exec>) {
    if (pram::tuning().fused) {
      if (rounds >= 2) {
        detail::narrow_relabel_rounds(exec, list, labels, rounds, rule,
                                      labels_are_addresses);
        return;
      }
      if (rounds == 1 && labels_are_addresses) {
        const index_t* nx = list.next_array().data();
        const index_t head = list.head();
        label_t* dst = labels.data();
        exec.sweep(list.size(), 1, [=](std::size_t lo, std::size_t hi) {
          detail::relabel_addresses_span(nx, dst, lo, hi, head, rule);
        });
        return;
      }
    }
  }
  auto tmp_h = pram::scratch<label_t>(exec, labels.size());
  std::vector<label_t>& tmp = *tmp_h;
  for (int r = 0; r < rounds; ++r) {
    relabel(exec, list, labels, tmp, rule);
    labels.swap(tmp);
  }
}

/// Iterate relabel steps until the label *bound* reaches the fixed point
/// (< 6). Returns the number of rounds executed — Θ(G(n)), compared
/// against itlog::G in the Lemma 2 tests. Single-node lists need no work.
template <class Exec>
int reduce_to_constant(Exec& exec, const list::LinkedList& list,
                       std::vector<label_t>& labels, BitRule rule,
                       bool labels_are_addresses = false) {
  // The round count is a pure function of n (the bound sequence), so the
  // whole run goes to the narrowed multi-round driver.
  const int rounds = rounds_to_constant(list.size());
  relabel_rounds(exec, list, labels, rounds, rule, labels_are_addresses);
  return rounds;
}

/// EREW counterpart of relabel_rounds (needs the predecessor array).
template <class Exec>
void relabel_rounds_erew(Exec& exec, const list::LinkedList& list,
                         const std::vector<index_t>& pred,
                         std::vector<label_t>& labels, int rounds,
                         BitRule rule) {
  if (list.size() <= 1) return;  // as relabel_rounds
  auto tmp_h = pram::scratch<label_t>(exec, labels.size());
  auto inbox_h = pram::scratch<label_t>(exec, labels.size());
  std::vector<label_t>& tmp = *tmp_h;
  std::vector<label_t>& inbox = *inbox_h;
  for (int r = 0; r < rounds; ++r) {
    relabel_erew(exec, list, pred, labels, tmp, inbox, rule);
    labels.swap(tmp);
  }
}

/// EREW counterpart of reduce_to_constant.
template <class Exec>
int reduce_to_constant_erew(Exec& exec, const list::LinkedList& list,
                            const std::vector<index_t>& pred,
                            std::vector<label_t>& labels, BitRule rule) {
  const int rounds = rounds_to_constant(list.size());
  relabel_rounds_erew(exec, list, pred, labels, rounds, rule);
  return rounds;
}

/// Number of distinct values among labels[v] for all n circular pointers.
/// Every label a registry matcher counts is below 128: one relabel round
/// leaves f = 2k + a_k with k <= 63, and a list short enough to skip the
/// rounds has fewer addresses than that. So one pass over a 128-byte
/// presence array on the stack counts them, with no allocation. A larger
/// label (the addresses of a longer list before any round, or a hand-made
/// input) is counted by sorting a copy instead.
std::size_t distinct_labels(const std::vector<label_t>& labels);

}  // namespace llmp::core
