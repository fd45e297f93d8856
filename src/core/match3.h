// Algorithm Match3 (paper §2; Han [7] / Beame, as stated in Goldberg–
// Plotkin–Shannon [5]) — time O(n·log G(n)/p + log G(n)), not optimal.
//
//   Step 1  label[v] := address of v
//   Step 2  k relabel rounds — "number crunching": labels shrink to
//           b_k = O(log^(k) n) bits so the table below stays small
//   Step 3  log-many rounds of label[v] := label[v] ++ label[NEXT[v]];
//           NEXT[v] := NEXT[NEXT[v]]  (concatenation by pointer jumping)
//   Step 4  label[v] := T[label[v]] — one probe of a table holding an
//           iterated matching partition function; labels are now constant
//   Steps 5–6 = Match1 steps 3–4 (cut + walk)
//
// The table replaces Θ(G(n)) relabel rounds with ceil(log2 w) jump rounds
// plus one probe, w the collapse width needed to reach the fixed-point
// alphabet from b_k-bit labels. Construction cost is preprocessing (the
// paper counts it separately; E11 measures it).
#pragma once

#include <memory>

#include "core/cut.h"
#include "core/gather.h"
#include "core/match_result.h"
#include "core/partition_fn.h"
#include "list/linked_list.h"
#include "pram/context.h"
#include "support/failpoint.h"

namespace llmp::core {

struct Match3Options {
  /// Crunch rounds k in step 2. 0 = auto: smallest k whose table fits in
  /// kAutoTableCells cells (more crunching → smaller table, more steps —
  /// the adjustable trade-off the paper describes).
  int crunch_rounds = 0;
  BitRule rule = BitRule::kMostSignificant;
  static constexpr std::size_t kAutoTableCells = std::size_t{1} << 16;
};

/// The concrete plan Match3 derives from (n, options); exposed so tests
/// and E6/E11 can sweep it.
struct Match3Plan {
  int crunch_rounds = 0;
  int component_bits = 0;
  int collapse_width = 1;  ///< relabel rounds the table stands in for, +1
  int gather_rounds = 0;   ///< ceil(log2 collapse_width)
  std::size_t table_cells = 0;
  bool needs_table = false;
};

inline Match3Plan plan_match3(std::size_t n, const Match3Options& opt) {
  Match3Plan plan;
  auto build = [&](int k) {
    Match3Plan p;
    p.crunch_rounds = k;
    label_t bound = bound_after_rounds(n, k);
    p.component_bits = itlog::ceil_log2(bound);
    p.needs_table = bound > kFixedPointBound;
    if (p.needs_table) {
      // Width w: collapsing w components performs w−1 more relabel
      // rounds; stop when the bound hits the fixed point.
      int w = 1;
      label_t b = bound;
      while (b > kFixedPointBound) {
        b = partition_bound_after(b);
        ++w;
      }
      p.collapse_width = w;
      p.gather_rounds = itlog::ceil_log2(static_cast<std::uint64_t>(w));
      const int width = 1 << p.gather_rounds;
      const int key_bits = p.component_bits * width;
      p.table_cells = key_bits > MatchingLookupTable::kMaxKeyBits
                          ? 0  // infeasible
                          : std::size_t{1} << key_bits;
    }
    return p;
  };
  if (opt.crunch_rounds > 0) {
    plan = build(opt.crunch_rounds);
    LLMP_CHECK_MSG(!plan.needs_table || plan.table_cells != 0,
                   "crunch_rounds=" << opt.crunch_rounds
                                    << " leaves labels too wide for a table");
    return plan;
  }
  const int max_k = rounds_to_constant(n);
  for (int k = 1; k <= max_k; ++k) {
    plan = build(k);
    if (!plan.needs_table) return plan;  // crunching already finished
    if (plan.table_cells != 0 &&
        plan.table_cells <= Match3Options::kAutoTableCells)
      return plan;
  }
  return build(std::max(1, max_k));
}

/// In-place entry point; see match1_into. (The lookup table itself is
/// preprocessing — E11 measures its construction separately — and is
/// served from the process-wide cached_lookup_table, so only the first
/// call at a given plan pays for the build.)
template <class Exec>
void match3_into(Exec& exec, const list::LinkedList& list,
                 const Match3Options& opt, MatchResult& r) {
  PhaseClock clock(exec, r);
  const std::size_t n = list.size();

  const Match3Plan plan = plan_match3(n, opt);
  r.relabel_rounds = plan.crunch_rounds;
  r.gather_rounds = plan.gather_rounds;

  // Steps 1–2: address labels, then crunch.
  auto labels_h = pram::scratch<label_t>(exec, n);
  std::vector<label_t>& labels = *labels_h;
  init_address_labels(exec, n, labels);
  if (n > 1)
    relabel_rounds(exec, list, labels, plan.crunch_rounds, opt.rule,
                   /*labels_are_addresses=*/true);
  clock.phase("crunch");

  // Steps 3–4: concatenate and probe (table construction is
  // preprocessing, not counted in the algorithm's phases; E11 reports it —
  // and the process-wide cache hands warm runs the already-built table, so
  // repeated calls at a stable n allocate nothing here).
  if (n > 1 && plan.needs_table) {
    LLMP_FAILPOINT("core.match3.table");
    const MatchingLookupTable& table = cached_lookup_table(
        plan.component_bits, 1 << plan.gather_rounds, opt.rule,
        plan.collapse_width);
    r.table_cells = table.cells();
    LLMP_CHECK(table.final_bound() <= kFixedPointBound);
    gather_labels(exec, list, labels, plan.component_bits,
                  plan.gather_rounds);
    lookup_labels(exec, table, labels);
  }
  r.partition_sets = distinct_labels(labels);
  clock.phase("gather+lookup");

  // Steps 5–6 = Match1 steps 3–4.
  auto pred_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& pred = *pred_h;
  parallel_predecessors_into(exec, list, pred);
  r.cut = cut_and_walk(exec, list, pred, labels, kFixedPointBound,
                       r.in_matching);
  clock.phase("cut+walk");

  clock.finish();
}

template <class Exec>
MatchResult match3(Exec& exec, const list::LinkedList& list,
                   const Match3Options& opt = {}) {
  MatchResult r;
  match3_into(exec, list, opt, r);
  return r;
}

}  // namespace llmp::core
