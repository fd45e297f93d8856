// Algorithm Match4 — the paper's contribution (§3, Theorems 1–2).
//
//   Step 1  partition the pointers into < x matching sets, x = Θ(log^(i) n)
//           — either i relabel rounds (Lemma 3 flavour, O(n·i/p + i)) or
//           crunch+gather+table (Lemma 5 flavour, O(n·log i/p + log i))
//   Step 2  view the array as x rows × y = n/x columns; every column's
//           processor sorts its own cells by set number (sequential
//           counting sort, O(x)) — NO global sort
//   Step 3  WalkDown1 labels the inter-row pointers           (x steps)
//   Step 4  WalkDown2 labels the intra-row pointers           (2x−1 steps)
//   Step 5  Match1 steps 3–4 on the 3-color pointer labels
//
// With p = y = n/x processors every phase is O(x) time, so
// time·p = O(n·log i + n): optimal for constant i using up to
// O(n / log^(i) n) processors (Theorem 1), and the general curve
// O(n·log i/p + log^(i) n + log i) for constructible i (Theorem 2).
#pragma once

#include <algorithm>

#include "core/cut.h"
#include "core/gather.h"
#include "core/match_result.h"
#include "core/partition_fn.h"
#include "core/walkdown.h"
#include "list/linked_list.h"
#include "pram/context.h"

namespace llmp::core {

struct Match4Options {
  /// The adjustable parameter i: rows x = Θ(log^(i) n).
  int i_parameter = 3;
  /// Step-1 strategy: false = i relabel rounds (simple, O(n·i/p + i));
  /// true = Lemma 5's crunch+gather+table path (O(n·log i/p + log i)).
  bool partition_with_table = false;
  BitRule rule = BitRule::kMostSignificant;
  /// EREW-legal variant (inbox fan-outs; forces the iterative partition —
  /// the appendix runs the table-based paths on EREW only with
  /// preprocessing-stage table copies).
  bool erew = false;
};

/// The plan Match4 derives from (n, options); exposed for tests and E9/E10.
struct Match4Plan {
  label_t set_bound = 0;     ///< x: rows = exclusive bound on set numbers
  int equivalent_rounds = 0; ///< relabel rounds the partition realizes
  // Table path only:
  bool uses_table = false;
  int crunch_rounds = 0;
  int component_bits = 0;
  int collapse_width = 1;
  int gather_rounds = 0;
};

inline Match4Plan plan_match4(std::size_t n, const Match4Options& opt) {
  LLMP_CHECK(opt.i_parameter >= 1);
  Match4Plan plan;
  plan.equivalent_rounds = opt.i_parameter;
  plan.set_bound = bound_after_rounds(n, opt.i_parameter);
  if (!opt.partition_with_table || n <= 2) return plan;

  // Lemma 5 path: crunch k rounds, then one probe of a table collapsing
  // w = i−k+1 components stands in for the remaining i−k rounds; the
  // pointer jumping that gathers ceil-power-of-two(w) components costs
  // ceil(log2 w) steps. Pick the smallest k whose table fits.
  const int i = opt.i_parameter;
  for (int k = 1; k < i; ++k) {
    const label_t bound_k = bound_after_rounds(n, k);
    if (bound_k <= kFixedPointBound) break;  // crunching already done
    const int b = itlog::ceil_log2(bound_k);
    const int w = i - k + 1;
    const int r = itlog::ceil_log2(static_cast<std::uint64_t>(w));
    const int key_bits = b * (1 << r);
    if (key_bits > MatchingLookupTable::kMaxKeyBits) continue;
    plan.uses_table = true;
    plan.crunch_rounds = k;
    plan.component_bits = b;
    plan.collapse_width = w;
    plan.gather_rounds = r;
    break;
  }
  return plan;
}

namespace detail {
/// Step 5: one step reads each color as a label (kNoColor, the tail's, as
/// 0), then Match1's cut. On fused backends WalkDown has left kNoColor at
/// the tail and only there, which is the byte cut's kNoPointer, so that
/// step has nothing to do and the colors are cut as they are; the
/// referees and the EREW variant widen them into a label array.
template <class Exec>
CutStats cut_colors(Exec& exec, const list::LinkedList& list,
                    const std::vector<index_t>& pred,
                    const std::vector<std::uint8_t>& color, bool erew,
                    std::vector<std::uint8_t>& in_matching) {
  static_assert(kNoColor == kNoPointer);
  const std::size_t n = list.size();
  if constexpr (pram::has_sweep_v<Exec>) {
    if (pram::tuning().fused && !erew) {
      exec.sweep(n, 1, [](std::size_t, std::size_t) {});
      return cut_and_walk_bytes(exec, list, pred, color, 3, in_matching);
    }
  }
  auto plabel_h = pram::scratch<label_t>(exec, n);
  std::vector<label_t>& plabel = *plabel_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    const std::uint8_t c = m.rd(color, v);
    m.wr(plabel, v, static_cast<label_t>(c == kNoColor ? 0 : c));
  });
  return erew ? cut_and_walk_erew(exec, list, pred, plabel, 3, in_matching)
              : cut_and_walk(exec, list, pred, plabel, 3, in_matching);
}
}  // namespace detail

/// In-place entry point; see match1_into. All scratch — predecessors,
/// labels, the 2D layout, WalkDown state, colors — is leased from the
/// executor's arena, so warm Context runs allocate nothing.
template <class Exec>
void match4_into(Exec& exec, const list::LinkedList& list,
                 const Match4Options& opt, MatchResult& r) {
  PhaseClock clock(exec, r);
  const std::size_t n = list.size();

  Match4Options eff = opt;
  if (eff.erew) eff.partition_with_table = false;
  const Match4Plan plan = plan_match4(n, eff);

  auto pred_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& pred = *pred_h;
  parallel_predecessors_into(exec, list, pred);

  // ---- Step 1: partition into sets numbered < x. -------------------------
  auto labels_h = pram::scratch<label_t>(exec, n);
  std::vector<label_t>& labels = *labels_h;
  init_address_labels(exec, n, labels);
  label_t bound = static_cast<label_t>(std::max<std::size_t>(n, 1));
  if (n > 1) {
    if (plan.uses_table) {
      relabel_rounds(exec, list, labels, plan.crunch_rounds, opt.rule,
                     /*labels_are_addresses=*/true);
      const MatchingLookupTable& table = cached_lookup_table(
          plan.component_bits, 1 << plan.gather_rounds, opt.rule,
          plan.collapse_width);
      r.table_cells = table.cells();
      gather_labels(exec, list, labels, plan.component_bits,
                    plan.gather_rounds);
      lookup_labels(exec, table, labels);
      r.relabel_rounds = plan.crunch_rounds;
      r.gather_rounds = plan.gather_rounds;
      bound = std::max<label_t>(table.final_bound(), 2);
    } else {
      if (eff.erew)
        relabel_rounds_erew(exec, list, pred, labels, opt.i_parameter,
                            opt.rule);
      else
        relabel_rounds(exec, list, labels, opt.i_parameter, opt.rule,
                       /*labels_are_addresses=*/true);
      r.relabel_rounds = opt.i_parameter;
      bound = std::max<label_t>(plan.set_bound, 2);
    }
  } else {
    bound = 1;
  }
  r.partition_sets = distinct_labels(labels);
  clock.phase("partition");

  // ---- Step 2: 2D layout, per-column sequential sorts. -------------------
  // Rows x = the set-number bound, so every key fits a row; columns
  // y = ceil(n/x), one processor each.
  const Layout2D lay =
      sort_columns(exec, labels, static_cast<std::size_t>(bound));
  clock.phase("column-sort");

  // ---- Steps 3–4: the WalkDown schedule. ---------------------------------
  const auto color = walkdown_colors(exec, list, lay, pred, eff.erew);
  clock.phase("walkdown");

  // ---- Step 5: Match1 steps 3–4 on the 3-color labels. -------------------
  r.cut = detail::cut_colors(exec, list, pred, *color, eff.erew,
                             r.in_matching);
  clock.phase("cut+walk");

  clock.finish();
}

template <class Exec>
MatchResult match4(Exec& exec, const list::LinkedList& list,
                   const Match4Options& opt = {}) {
  MatchResult r;
  match4_into(exec, list, opt, r);
  return r;
}

}  // namespace llmp::core
