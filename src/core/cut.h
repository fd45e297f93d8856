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
//
// Fused path (cut_and_walk_bytes): labels are bytes, and one byte also
// says whether a pointer exists — every node with a pointer has a label
// < alphabet ≤ 255 and the tail has kNoPointer. Step 3 is then
// branch-free, with two byte gathers per node. Step 4 lists each chunk's
// run heads branch-free, then walks their runs in kCutLanes interleaved
// lanes, so the chases of many runs are in flight at once (after the
// interleaved segment walks of list/ruler_walk.h). Each step is still one
// accounted sweep, so the cost surface is the step path's; the step
// bodies stay as the referee pram::Machine and SymbolicExec run.
#pragma once

#include <algorithm>
#include <atomic>
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

/// The byte a fused cut reads at the tail, where no pointer starts.
inline constexpr std::uint8_t kNoPointer = 0xFF;

namespace detail {
/// Runs walked side by side by the fused step 4, one hop each per round.
inline constexpr std::size_t kCutLanes = 16;

/// Fused step-3 kernel over [lo, hi), branch-free: a missing neighbour
/// reads v's own byte, which fails the strict compare, and the pointer
/// after e_v exists iff its byte is not kNoPointer. Writes every flag of
/// the range and returns how many it set.
inline std::size_t cut_mark_span(const index_t* nx, const index_t* pr,
                                 const std::uint8_t* pl,
                                 std::uint8_t* cut_flags, std::size_t lo,
                                 std::size_t hi) {
  std::size_t cuts = 0;
  for (std::size_t v = lo; v < hi; ++v) {
    const index_t nv = nx[v];
    const index_t pv = pr[v];
    const std::uint8_t here = pl[v];
    const std::uint8_t before = pl[pv == knil ? v : pv];
    const std::uint8_t after = pl[nv == knil ? v : nv];
    const bool cut =
        (before > here) & (here < after) & (after != kNoPointer);
    cut_flags[v] = cut;
    cuts += cut;
  }
  return cuts;
}

/// Fused step-4 kernel over [lo, hi): list the range's run heads in
/// heads[lo, lo + k), branch-free, then walk their runs kCutLanes at a
/// time, taking every pointer at an even position. Returns the longest
/// run. Walks may leave the range — they only *read* cells no walker
/// writes this step, and the in_matching cells written are disjoint per
/// run — so chunked execution stays exact.
inline std::size_t cut_walk_span(const index_t* nx, const index_t* pr,
                                 const std::uint8_t* pl,
                                 const std::uint8_t* cut_flags,
                                 std::uint8_t* matched, index_t* heads,
                                 std::size_t lo, std::size_t hi,
                                 std::size_t max_run) {
  // A head has a pointer, and its predecessor pointer is absent or cut.
  index_t* first = heads + lo;
  std::size_t count = 0;
  for (std::size_t v = lo; v < hi; ++v) {
    const index_t pv = pr[v];
    first[count] = static_cast<index_t>(v);
    count += (pl[v] != kNoPointer) &
             ((pv == knil) | (cut_flags[pv == knil ? v : pv] != 0));
  }
  struct Lane {
    index_t u;    // node whose pointer is handled next
    index_t len;  // u's position in its run
  };
  Lane lanes[kCutLanes] = {};
  std::size_t live = std::min(count, kCutLanes);
  for (std::size_t k = 0; k < live; ++k) lanes[k] = {first[k], 0};
  std::size_t queued = live;
  std::size_t longest = 0;
  while (live != 0) {
    for (std::size_t k = 0; k < live; ++k) {
      Lane& lane = lanes[k];
      const index_t u = lane.u;
      matched[u] = (lane.len & 1) == 0;
      ++lane.len;
      LLMP_CHECK_MSG(lane.len <= max_run, "run exceeds 2·alphabet − 1");
      const index_t u2 = nx[u];
      // The run goes on while e_u2 exists and is not cut.
      if ((pl[u2] != kNoPointer) & (cut_flags[u2] == 0)) {
        lane.u = u2;
        continue;
      }
      longest = std::max<std::size_t>(longest, lane.len);
      if (queued < count)
        lane = {first[queued++], 0};
      else
        lane = lanes[--live];
    }
  }
  return longest;
}
}  // namespace detail

/// Fused steps 3–4 over byte labels: the path of every fused backend.
/// Every node with a pointer carries a label < alphabet ≤ 255, and the
/// tail carries kNoPointer, so one byte says whether a pointer exists.
/// Match4 cuts its WalkDown colors here directly (kNoColor is the tail's
/// and only its); cut_and_walk narrows wider label arrays into bytes
/// first. Each pass reduces its count per chunk, so no serial pass
/// follows them.
template <class Exec>
CutStats cut_and_walk_bytes(Exec& exec, const list::LinkedList& list,
                            const std::vector<index_t>& pred,
                            const std::vector<std::uint8_t>& plabel,
                            label_t alphabet,
                            std::vector<std::uint8_t>& in_matching) {
  const std::size_t n = list.size();
  LLMP_CHECK(plabel.size() == n);
  LLMP_CHECK(pred.size() == n);
  LLMP_CHECK(alphabet <= 255);
  LLMP_CHECK_MSG(n == 0 || plabel[list.tail()] == kNoPointer,
                 "the tail's label byte must be kNoPointer");
  in_matching.assign(n, 0);
  if (n <= 1) return {};
  const std::size_t max_run = 2 * static_cast<std::size_t>(alphabet) - 1;
  const index_t* nx = list.next_array().data();
  const index_t* pr = pred.data();
  const std::uint8_t* pl = plabel.data();
  std::uint8_t* matched = in_matching.data();
  auto cut_h = pram::scratch<std::uint8_t>(exec, n);
  auto heads_h = pram::scratch<index_t>(exec, n);  // each chunk's run heads
  std::uint8_t* cf = cut_h.vec().data();
  index_t* heads = heads_h.vec().data();
  std::atomic<std::size_t> cuts{0};
  std::atomic<std::size_t> longest{0};
  exec.sweep(n, 1, [=, &cuts](std::size_t lo, std::size_t hi) {
    cuts.fetch_add(detail::cut_mark_span(nx, pr, pl, cf, lo, hi),
                   std::memory_order_relaxed);
  });
  exec.sweep(n, max_run, [=, &longest](std::size_t lo, std::size_t hi) {
    const std::size_t run = detail::cut_walk_span(nx, pr, pl, cf, matched,
                                                  heads, lo, hi, max_run);
    std::size_t seen = longest.load(std::memory_order_relaxed);
    while (run > seen && !longest.compare_exchange_weak(
                             seen, run, std::memory_order_relaxed)) {
    }
  });
  return {cuts.load(std::memory_order_relaxed),
          longest.load(std::memory_order_relaxed)};
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
    if (pram::tuning().fused && alphabet <= 255) {
      // Constant-alphabet labels fit a byte: narrow them so the neighbour
      // chases touch an n-byte array instead of the 8n-byte input, and
      // mark the tail, which has no pointer, kNoPointer.
      // Raw pointers: a byte store through a vector could alias its
      // pointers and stop the loop from vectorizing.
      auto pl8_h = pram::scratch<std::uint8_t>(exec, n);
      std::uint8_t* pl8 = pl8_h.vec().data();
      const label_t* wide = plabel.data();
      for (std::size_t v = 0; v < n; ++v)
        pl8[v] = static_cast<std::uint8_t>(wide[v]);
      if (n != 0) pl8[list.tail()] = kNoPointer;
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
