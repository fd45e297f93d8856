// Match1 steps 3–4: cut the list at label local minima, then walk each of
// the resulting constant-length sublists taking every other pointer.
// Shared by Match1, Match3 and Match4, which differ only in how they
// produce the constant-alphabet pointer labels fed in here.
//
// Pointer labels: plabel[v] is the label of pointer e_v = <v, suc(v)>;
// adjacent real pointers must carry different labels (a matching
// partition, enforced by LLMP_DCHECK and by the callers' contracts).
//
// Cut rule (paper step 3, with explicit boundary convention): e_v is cut
// iff both neighbour pointers exist and plabel is a strict local minimum
// at v. Boundary pointers are never cut, hence no two cut pointers are
// adjacent, hence the pointer after a cut is always the first of a run and
// is always taken — which is what makes the matching maximal (the cut
// pointer's head endpoint is covered). Runs between cuts are valley-free
// label sequences over an alphabet of size A, so their length is at most
// 2A−1: the per-head walk is a bounded sequential subroutine and the step
// declares that bound as its unit cost.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fanout.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "pram/stats.h"
#include "pram/sweep.h"
#include "support/check.h"
#include "support/types.h"

namespace llmp::core {

struct CutStats {
  std::size_t cuts = 0;     ///< pointers deleted in step 3
  std::size_t max_run = 0;  ///< longest sublist walked in step 4
};

namespace detail {
/// Fused step-3 kernel: mark strict-local-minimum cut pointers over
/// [lo, hi), prefetching the three neighbour-cell chases ahead. Labels are
/// bytes, so the neighbour chases touch an n-byte array.
inline void cut_mark_span(const index_t* nx, const index_t* pr,
                          const std::uint8_t* pl, std::uint8_t* cut_flags,
                          std::size_t lo, std::size_t hi) {
  const std::size_t dist =
      static_cast<std::size_t>(pram::tuning().prefetch.distance);
  for (std::size_t v = lo; v < hi; ++v) {
    if (dist != 0 && v + dist < hi) {
      const index_t pf_n = nx[v + dist];
      const index_t pf_p = pr[v + dist];
      if (pf_n != knil) {
        pram::prefetch_ro(pl + pf_n);
        pram::prefetch_ro(nx + pf_n);
      }
      if (pf_p != knil) pram::prefetch_ro(pl + pf_p);
    }
    const index_t nv = nx[v];
    if (nv == knil) continue;  // no pointer e_v
    const index_t pv = pr[v];
    if (pv == knil) continue;  // boundary: never cut
    if (nx[nv] == knil) continue;
    const std::uint8_t here = pl[v];
    if (pl[pv] > here && here < pl[nv]) cut_flags[v] = 1;
  }
}

/// Fused step-4 kernel: every run head in [lo, hi) walks its run taking
/// alternate pointers. Walks may leave the chunk — they only *read* cells
/// no walker writes this step, and the written cells (in_matching,
/// run_len) are disjoint per run, so chunked execution stays exact.
inline void cut_walk_span(const index_t* nx, const index_t* pr,
                          const std::uint8_t* cut_flags,
                          std::uint8_t* matched, std::uint32_t* run_len,
                          std::size_t lo, std::size_t hi,
                          std::size_t max_run) {
  const std::size_t dist =
      static_cast<std::size_t>(pram::tuning().prefetch.distance);
  for (std::size_t v = lo; v < hi; ++v) {
    if (dist != 0 && v + dist < hi) {
      const index_t pf_p = pr[v + dist];
      if (pf_p != knil) pram::prefetch_ro(cut_flags + pf_p);
    }
    const index_t pv = pr[v];
    if (nx[v] == knil) continue;
    if (pv != knil && !cut_flags[pv]) continue;
    std::size_t len = 0;
    bool take = true;
    index_t u = static_cast<index_t>(v);
    for (;;) {
      ++len;
      LLMP_CHECK_MSG(len <= max_run, "run exceeds 2·alphabet − 1");
      if (take) matched[u] = 1;
      take = !take;
      const index_t u2 = nx[u];
      if (nx[u2] == knil) break;
      if (cut_flags[u2]) break;  // run ends
      u = u2;
    }
    run_len[v] = static_cast<std::uint32_t>(len);
  }
}
}  // namespace detail

/// Fused steps 3–4 over byte labels (every label < alphabet ≤ 256): the
/// path of every fused backend. Match4 cuts its WalkDown colors here
/// directly; cut_and_walk narrows wider label arrays into bytes first.
template <class Exec>
CutStats cut_and_walk_bytes(Exec& exec, const list::LinkedList& list,
                            const std::vector<index_t>& pred,
                            const std::vector<std::uint8_t>& plabel,
                            label_t alphabet,
                            std::vector<std::uint8_t>& in_matching) {
  const std::size_t n = list.size();
  LLMP_CHECK(plabel.size() == n);
  LLMP_CHECK(pred.size() == n);
  LLMP_CHECK(alphabet <= 256);
  in_matching.assign(n, 0);
  if (n <= 1) return {};
  const std::size_t max_run = 2 * static_cast<std::size_t>(alphabet) - 1;
  const index_t* nx = list.next_array().data();
  const index_t* pr = pred.data();
  const std::uint8_t* pl = plabel.data();
  std::uint8_t* matched = in_matching.data();
  auto cut_h = pram::scratch<std::uint8_t>(exec, n);
  auto run_h = pram::scratch<std::uint32_t>(exec, n);  // max_run audit
  std::uint8_t* cf = cut_h.vec().data();
  std::uint32_t* rl = run_h.vec().data();
  exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
    detail::cut_mark_span(nx, pr, pl, cf, lo, hi);
  });
  exec.sweep(n, max_run, [=](std::size_t lo, std::size_t hi) {
    detail::cut_walk_span(nx, pr, cf, matched, rl, lo, hi, max_run);
  });
  CutStats stats;
  for (index_t v = 0; v < n; ++v) {
    stats.max_run = std::max(stats.max_run, static_cast<std::size_t>(rl[v]));
    stats.cuts += cf[v];
  }
  return stats;
}

/// Execute steps 3–4. `alphabet` is an upper bound on plabel values + 1
/// (6 for the fixed-point labels; 3 for Match4's WalkDown output).
/// `pred` is the predecessor array; `in_matching` receives the result.
template <class Exec>
CutStats cut_and_walk(Exec& exec, const list::LinkedList& list,
                      const std::vector<index_t>& pred,
                      const std::vector<label_t>& plabel, label_t alphabet,
                      std::vector<std::uint8_t>& in_matching) {
  const std::size_t n = list.size();
  LLMP_CHECK(plabel.size() == n);
  LLMP_CHECK(pred.size() == n);
  if constexpr (pram::has_sweep_v<Exec>) {
    if (pram::tuning().fused && alphabet <= 256) {
      // Constant-alphabet labels fit a byte: narrow them so the neighbour
      // chases touch an n-byte array instead of the 8n-byte input.
      // Raw pointers: a byte store through a vector could alias its
      // pointers and stop the loop from vectorizing.
      auto pl8_h = pram::scratch<std::uint8_t>(exec, n);
      std::uint8_t* pl8 = pl8_h.vec().data();
      const label_t* wide = plabel.data();
      for (std::size_t v = 0; v < n; ++v)
        pl8[v] = static_cast<std::uint8_t>(wide[v]);
      return cut_and_walk_bytes(exec, list, pred, pl8_h.vec(), alphabet,
                                in_matching);
    }
  }
  in_matching.assign(n, 0);
  if (n <= 1) return {};
  const auto& next = list.next_array();
  const std::size_t max_run = 2 * static_cast<std::size_t>(alphabet) - 1;

  // Step 3: mark cut pointers. Each processor reads three label cells
  // (its own pointer's and both neighbours') — CREW.
  auto cut_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& cut = *cut_h;
  CutStats stats;
  auto run_len_h = pram::scratch<std::size_t>(exec, n);  // max_run audit
  std::vector<std::size_t>& run_len = *run_len_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    const index_t nv = m.rd(next, v);
    if (nv == knil) return;                       // no pointer e_v
    const index_t pv = m.rd(pred, v);
    if (pv == knil) return;                       // boundary: never cut
    if (m.rd(next, static_cast<std::size_t>(nv)) == knil) return;
    const label_t here = m.rd(plabel, v);
    const label_t before = m.rd(plabel, static_cast<std::size_t>(pv));
    const label_t after = m.rd(plabel, static_cast<std::size_t>(nv));
    LLMP_DCHECK(here != before && here != after);
    if (before > here && here < after) m.wr(cut, v, std::uint8_t{1});
  });

  // Step 4: each sublist head walks its run, taking alternate pointers.
  // A head is a node whose pointer exists and whose predecessor pointer is
  // absent or cut. Every run's first pointer is taken.
  exec.step(n, max_run, [&](std::size_t v, auto&& m) {
    const index_t pv = m.rd(pred, v);
    if (m.rd(next, v) == knil) return;
    if (pv != knil && !m.rd(cut, static_cast<std::size_t>(pv))) return;
    // v heads a run (cut pointers head nothing: no two cuts are adjacent,
    // and a head's own pointer is never cut — see header comment).
    std::size_t len = 0;
    bool take = true;
    index_t u = static_cast<index_t>(v);
    for (;;) {
      ++len;
      LLMP_CHECK_MSG(len <= max_run, "run exceeds 2·alphabet − 1");
      if (take) m.wr(in_matching, static_cast<std::size_t>(u), std::uint8_t{1});
      take = !take;
      const index_t u2 = m.rd(next, static_cast<std::size_t>(u));
      if (m.rd(next, static_cast<std::size_t>(u2)) == knil) break;
      if (m.rd(cut, static_cast<std::size_t>(u2))) break;  // run ends
      u = u2;
    }
    m.wr(run_len, v, len);
  });

  for (index_t v = 0; v < n; ++v) {
    stats.max_run = std::max(stats.max_run, run_len[v]);
    stats.cuts += cut[v];
  }
  return stats;
}

/// EREW variant of cut_and_walk: every neighbour read that had multiple
/// simultaneous readers (plabel of the two adjacent pointers, pointer
/// existence of the successor, cut flag of the predecessor pointer) is
/// replaced by a pushed inbox, read exclusively. Costs 4 extra fan-out
/// steps; same output (tested).
template <class Exec>
CutStats cut_and_walk_erew(Exec& exec, const list::LinkedList& list,
                           const std::vector<index_t>& pred,
                           const std::vector<label_t>& plabel,
                           label_t alphabet,
                           std::vector<std::uint8_t>& in_matching) {
  const std::size_t n = list.size();
  LLMP_CHECK(plabel.size() == n);
  LLMP_CHECK(pred.size() == n);
  in_matching.assign(n, 0);
  if (n <= 1) return {};
  const auto& next = list.next_array();
  const std::size_t max_run = 2 * static_cast<std::size_t>(alphabet) - 1;
  constexpr label_t kNoLbl = kno_label;

  // Inboxes: neighbour pointer labels and whether the successor has a
  // pointer of its own.
  auto lbl_prev_h = pram::scratch<label_t>(exec, n, kNoLbl);
  auto lbl_next_h = pram::scratch<label_t>(exec, n, kNoLbl);
  std::vector<label_t>& lbl_prev = *lbl_prev_h;
  std::vector<label_t>& lbl_next = *lbl_next_h;
  pull_from_pred(exec, list, plabel, lbl_prev, /*circular=*/false);
  pull_from_next(exec, list, pred, plabel, lbl_next, /*circular=*/false);
  auto has_ptr_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& has_ptr = *has_ptr_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(has_ptr, v, static_cast<std::uint8_t>(m.rd(next, v) != knil));
  });
  auto next_has_ptr_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& next_has_ptr = *next_has_ptr_h;
  pull_from_next(exec, list, pred, has_ptr, next_has_ptr, false);

  // Step 3 (EREW): every read is of the processor's own cells.
  auto cut_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& cut = *cut_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    if (!m.rd(has_ptr, v)) return;
    if (m.rd(pred, v) == knil) return;        // boundary: never cut
    if (!m.rd(next_has_ptr, v)) return;       // successor pointer missing
    const label_t here = m.rd(plabel, v);
    const label_t before = m.rd(lbl_prev, v);
    const label_t after = m.rd(lbl_next, v);
    LLMP_DCHECK(here != before && here != after);
    if (before > here && here < after) m.wr(cut, v, std::uint8_t{1});
  });

  // Head detection needs the predecessor pointer's cut flag: push it.
  auto cut_prev_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& cut_prev = *cut_prev_h;
  pull_from_pred(exec, list, cut, cut_prev, false);

  // Step 4: walks are disjoint, so the traversal reads are exclusive; the
  // only cross-run reads (cut flag and pointer-existence of the boundary
  // pointer) touch cells no other walker reads this step.
  CutStats stats;
  auto run_len_h = pram::scratch<std::size_t>(exec, n);
  std::vector<std::size_t>& run_len = *run_len_h;
  exec.step(n, max_run, [&](std::size_t v, auto&& m) {
    if (!m.rd(has_ptr, v)) return;
    if (m.rd(pred, v) != knil && !m.rd(cut_prev, v)) return;
    std::size_t len = 0;
    bool take = true;
    index_t u = static_cast<index_t>(v);
    for (;;) {
      ++len;
      LLMP_CHECK_MSG(len <= max_run, "run exceeds 2·alphabet − 1");
      if (take)
        m.wr(in_matching, static_cast<std::size_t>(u), std::uint8_t{1});
      take = !take;
      const index_t u2 = m.rd(next, static_cast<std::size_t>(u));
      if (m.rd(next, static_cast<std::size_t>(u2)) == knil) break;
      if (m.rd(cut, static_cast<std::size_t>(u2))) break;
      u = u2;
    }
    m.wr(run_len, v, len);
  });

  for (index_t v = 0; v < n; ++v) {
    stats.max_run = std::max(stats.max_run, run_len[v]);
    stats.cuts += cut[v];
  }
  return stats;
}

}  // namespace llmp::core
