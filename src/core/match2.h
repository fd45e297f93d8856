// Algorithm Match2 (paper §2; Han [6] / Cole–Vishkin [3]) — the optimal
// O(n/p + log n) algorithm whose sort step the paper's contribution
// (Match4) eliminates.
//
//   Step 1  partition the pointers into ≤ 2·log^(2) n·(1+o(1)) matching
//           sets (two relabel rounds, i.e. f^(3))
//   Step 2  *globally* sort pointers by set number so each set is
//           contiguous — integers in {0..R−1}, R = O(log log n)
//   Step 3  sweep the sets one at a time; within a set all pointers are
//           node-disjoint, so each checks DONE on its endpoints, claims
//           both, and joins S
//
// The sort is a parallel stable counting sort (pram/prefix.h); the paper's
// point — visible in this implementation's phase breakdown (E5) — is that
// the sort is the only phase whose time does not scale down to O(n/p)
// with many processors, which makes Match2 "inefficient" beyond
// p = O(n / log n).
#pragma once

#include <algorithm>

#include "core/match_result.h"
#include "core/partition_fn.h"
#include "list/linked_list.h"
#include "pram/context.h"
#include "pram/prefix.h"
#include "support/failpoint.h"
#include "support/itlog.h"

namespace llmp::core {

struct Match2Options {
  /// Relabel rounds in step 1. Two rounds compute f^(3): set numbers
  /// bounded by 2·ceil(log2(2·ceil(log2 n))) = O(log log n), the paper's
  /// choice. More rounds shrink R further at one extra step each.
  int partition_rounds = 2;
  BitRule rule = BitRule::kMostSignificant;
  /// Histogram blocks for the sort; 0 = use the executor's p.
  std::size_t sort_blocks = 0;
  /// Run the EREW-legal variant. The paper's Lemma 4 is an EREW bound and
  /// the appendix notes Match2 runs on EREW "without any precomputation";
  /// only step 1's relabel needs the inbox fan-out — the sort and the
  /// sweep are exclusive already.
  bool erew = false;
};

/// The concrete sizes Match2 derives from (n, options, p) before touching
/// the list — the plan every sort buffer is pre-sized from, which is what
/// extends the zero-steady-state-allocation guarantee to Match2: all
/// scratch (keys, order, offsets, the padded counter grid) is leased at
/// plan-determined sizes, so a warm Context serves every take from the
/// pool (asserted by tests/context_test.cpp).
struct Match2Plan {
  int partition_rounds = 2;
  label_t label_bound = 1;   ///< R: exclusive bound on set numbers
  std::size_t blocks = 1;    ///< histogram blocks (min(p-or-option, n))
  std::size_t count_cells = 1;  ///< counter grid, pow2-padded for the scan
};

inline Match2Plan plan_match2(std::size_t n, const Match2Options& opt,
                              std::size_t processors) {
  LLMP_FAILPOINT("core.match2.plan");
  Match2Plan plan;
  plan.partition_rounds = opt.partition_rounds;
  label_t bound = static_cast<label_t>(n);
  if (n > 1) {
    for (int t = 0; t < opt.partition_rounds; ++t)
      bound = partition_bound_after(bound);
  } else {
    bound = 1;
  }
  plan.label_bound = bound;
  plan.blocks = opt.sort_blocks == 0 ? processors : opt.sort_blocks;
  plan.blocks = std::min(plan.blocks, std::max<std::size_t>(n, 1));
  plan.count_cells = std::size_t{1} << itlog::ceil_log2(
      static_cast<std::size_t>(plan.label_bound) * plan.blocks);
  return plan;
}

/// In-place entry point; see match1_into. Warm calls through a pooled
/// pram::Context allocate nothing: every sort buffer is pre-sized from
/// plan_match2 and leased from the arena.
template <class Exec>
void match2_into(Exec& exec, const list::LinkedList& list,
                 const Match2Options& opt, MatchResult& r) {
  PhaseClock clock(exec, r);
  const std::size_t n = list.size();

  const Match2Plan plan = plan_match2(n, opt, exec.processors());

  // Step 1: matching partition into R sets.
  auto labels_h = pram::scratch<label_t>(exec, n);
  std::vector<label_t>& labels = *labels_h;
  init_address_labels(exec, n, labels);
  if (n > 1) {
    if (opt.erew) {
      auto pred_h = pram::scratch<index_t>(exec, n);
      std::vector<index_t>& pred = *pred_h;
      parallel_predecessors_into(exec, list, pred);
      relabel_rounds_erew(exec, list, pred, labels, opt.partition_rounds,
                          opt.rule);
    } else {
      relabel_rounds(exec, list, labels, opt.partition_rounds, opt.rule,
                     /*labels_are_addresses=*/true);
    }
  }
  r.relabel_rounds = opt.partition_rounds;
  r.partition_sets = distinct_labels(labels);
  clock.phase("partition");

  // Step 2: global sort of pointers by set number, into arena-leased
  // buffers pre-sized from the plan. (The tail has no real pointer; it is
  // sorted along and skipped in the sweep.)
  const index_t range = static_cast<index_t>(plan.label_bound);
  auto keys_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& keys = *keys_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(keys, v, static_cast<index_t>(m.rd(labels, v)));
  });
  auto order_h = pram::scratch<index_t>(exec, n);
  auto offsets_h =
      pram::scratch<std::uint64_t>(exec, static_cast<std::size_t>(range) + 1);
  std::vector<index_t>& order = *order_h;
  std::vector<std::uint64_t>& offsets = *offsets_h;
  pram::counting_sort_by_key_into(exec, keys, range, plan.blocks, order,
                                  offsets);
  clock.phase("sort");

  // Step 3: process the sets one by one.
  const auto& next = list.next_array();
  auto done_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& done = *done_h;
  r.in_matching.assign(n, 0);
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(done, v, std::uint8_t{0});
  });
  for (index_t k = 0; k < range; ++k) {
    const std::uint64_t lo = offsets[k];
    const std::uint64_t hi = offsets[k + 1];
    if (lo == hi) continue;
    exec.step(static_cast<std::size_t>(hi - lo), [&](std::size_t t,
                                                     auto&& m) {
      const index_t v = m.rd(order, static_cast<std::size_t>(lo) + t);
      const index_t s = m.rd(next, static_cast<std::size_t>(v));
      if (s == knil) return;  // tail: no pointer
      if (m.rd(done, static_cast<std::size_t>(v)) ||
          m.rd(done, static_cast<std::size_t>(s)))
        return;
      m.wr(done, static_cast<std::size_t>(v), std::uint8_t{1});
      m.wr(done, static_cast<std::size_t>(s), std::uint8_t{1});
      m.wr(r.in_matching, static_cast<std::size_t>(v), std::uint8_t{1});
    });
  }
  clock.phase("sweep");

  clock.finish();
}

template <class Exec>
MatchResult match2(Exec& exec, const list::LinkedList& list,
                   const Match2Options& opt = {}) {
  MatchResult r;
  match2_into(exec, list, opt, r);
  return r;
}

}  // namespace llmp::core
