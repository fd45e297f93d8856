// The processor-scheduling technique of §3: the 2D layout, WalkDown1
// (Lemma 6) and WalkDown2 (Lemma 7 + Corollaries 1–2).
//
// The array holding the list is viewed as x rows × y columns
// (column-major: column j owns array cells [j·x, j·x + x)), one processor
// per column. Each processor sorts its own column by the pointers'
// matching-set numbers — a *sequential* integer sort of x keys, O(x) time,
// replacing Match2's global sort. A pointer <a,b> is intra-row when a and
// b land on the same row of the sorted layout, inter-row otherwise.
//
// WalkDown1 processes inter-row pointers: at step t every processor
// handles the pointer whose tail sits in row t of its column. Two
// pointers sharing a node are adjacent, <a,b> and <b,c>; they are handled
// at steps row(a) and row(b), which differ precisely because <a,b> is
// inter-row — so concurrent labelings never touch a common node and a
// greedy choice from {0,1,2} (different from both neighbour pointers'
// current labels) is safe.
//
// WalkDown2 processes intra-row pointers: each processor walks its sorted
// column with a (count, index) pair over 2x−1 steps, handling the cell at
// `index` exactly when its set number equals `count` (Lemma 7: the cell
// in row r is handled at step r + A[r]; Corollary 1: everything is handled
// by step 2x−2; Corollary 2: cells handled concurrently in one row share
// one set number). Intra-row pointers that share a node lie in the same
// row (both endpoints of each are in that row) and in different sets, so
// they are handled at different steps; their inter-row neighbours were
// fully labeled by WalkDown1 beforehand.
//
// Both phases draw from the shared palette {0,1,2}: every adjacent pair
// of pointers is handled at distinct (phase, step) times, so the later one
// sees and avoids the earlier one's label — a proper 3-set matching
// partition of all pointers, which cut.h turns into a maximal matching.
// (The paper labels the two phases from separate palettes "with minor
// adjustment"; the shared palette is the same schedule and is verified by
// the E7/E8 property tests.)
//
// `walkdown` runs both phases. On the fused backends it runs them in
// closed form: WalkDown1 handles inter-row pointer e_v at step row(v),
// WalkDown2 handles every cell at step row(v) + key(v) (Lemma 7), so one
// stable counting sort of the pointers by handling step followed by one
// visit per pointer in step order gives the walks' colors — n visits in
// place of x·y + (2x−1)·y strided cell visits. Each step is still one
// accounted sweep of y processors. The step-by-step walks `walkdown1` and
// `walkdown2`, (count, index) pair and all, stay as the referee that
// pram::Machine and SymbolicExec run, and as the source of the Lemma 7
// trace.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "core/fanout.h"
#include "core/match_result.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "pram/stats.h"
#include "pram/sweep.h"
#include "support/check.h"
#include "support/types.h"

namespace llmp::core {

/// No color assigned yet (valid colors are 0,1,2).
inline constexpr std::uint8_t kNoColor = 0xFF;

/// The sorted 2D view of the list. The arrays are arena leases (pooled
/// when built through a pram::Context, plain heap otherwise), so the
/// struct is move-only and its backing stores recycle across warm runs.
struct Layout2D {
  std::size_t rows = 0;  ///< x
  std::size_t cols = 0;  ///< y = ceil(n/x)
  /// cell_node[j*rows + r]: node in (row r, column j); knil for padding
  /// cells of the last column.
  pram::ScratchVec<index_t> cell_node;
  /// node_row[v]: the row node v occupies after its column's sort.
  pram::ScratchVec<index_t> node_row;
  /// node_key[v]: the matching-set number the columns were sorted by.
  pram::ScratchVec<index_t> node_key;
};

/// Sort every column by set number (keys[v] < rows for all v). One step of
/// `cols` processors, each running an O(rows)-time sequential counting
/// sort of its own cells — the unit cost declares 2·rows+2 accordingly.
template <class Exec>
Layout2D build_layout(Exec& exec, std::size_t n,
                      const std::vector<index_t>& keys, std::size_t rows) {
  LLMP_CHECK(rows >= 1);
  LLMP_CHECK(keys.size() == n);
  Layout2D lay;
  lay.rows = rows;
  lay.cols = (n + rows - 1) / rows;
  lay.cell_node = pram::scratch<index_t>(exec, lay.rows * lay.cols, knil);
  lay.node_row = pram::scratch<index_t>(exec, n, index_t{0});
  lay.node_key = pram::scratch<index_t>(exec, n);
  std::copy(keys.begin(), keys.end(), lay.node_key.vec().begin());

  // Per-column histograms are processor-local, hence untracked. Every
  // Match4 plan has rows ≤ 2⌈log2 n⌉ ≤ 64, so a column's histogram fits on
  // the stack; wider layouts (one column of rows = n) lease one zero-filled
  // slice per column, [j·(rows+1), (j+1)·(rows+1)). The step body
  // allocates nothing either way.
  constexpr std::size_t kStackRows = 64;
  pram::ScratchVec<std::size_t> wide_h;
  if (rows > kStackRows)
    wide_h = pram::scratch<std::size_t>(exec, lay.cols * (rows + 1));
  std::size_t* wide = wide_h.vec().data();

  exec.step(lay.cols, 2 * rows + 2, [&](std::size_t j, auto&& m) {
    const std::size_t lo = j * rows;
    const std::size_t hi = std::min(n, lo + rows);
    // Sequential counting sort of the column's cells by key — processor-
    // local histogram, shared writes only to this column's cells.
    std::size_t local[kStackRows + 1];
    std::size_t* count = local;
    if (rows > kStackRows)
      count = wide + j * (rows + 1);
    else
      std::fill(local, local + rows + 1, std::size_t{0});
    for (std::size_t v = lo; v < hi; ++v) {
      const index_t k = m.rd(keys, v);
      LLMP_CHECK(k < rows);  // the histogram has rows + 1 cells
      ++count[k + 1];
    }
    for (std::size_t k = 1; k <= rows; ++k) count[k] += count[k - 1];
    for (std::size_t v = lo; v < hi; ++v) {
      const index_t k = m.rd(keys, v);
      const std::size_t r = count[k]++;
      m.wr(lay.cell_node, lo + r, static_cast<index_t>(v));
      m.wr(lay.node_row, v, static_cast<index_t>(r));
    }
  });
  return lay;
}

namespace detail {
/// Entry (a & 3)·4 + (b & 3): the smallest of {0,1,2} that is neither a
/// nor b, where kNoColor & 3 == 3 matches no color. Two neighbours exclude
/// at most two colors, so every entry is a color.
inline constexpr std::array<std::uint8_t, 16> kFreeColor = [] {
  std::array<std::uint8_t, 16> t{};
  for (std::uint8_t a = 0; a < 4; ++a)
    for (std::uint8_t b = 0; b < 4; ++b) {
      std::uint8_t c = 0;
      while (c == a || c == b) ++c;
      t[a * 4 + b] = c;
    }
  return t;
}();
}  // namespace detail

/// Greedy color: smallest of {0,1,2} not used by either neighbour pointer
/// (kNoColor for a pointer not colored yet, or absent).
inline std::uint8_t smallest_free_color(std::uint8_t a, std::uint8_t b) {
  LLMP_DCHECK((a < 3 || a == kNoColor) && (b < 3 || b == kNoColor));
  return detail::kFreeColor[(a & 3) * 4 + (b & 3)];
}

/// WalkDown1 (Lemma 6): label every inter-row pointer. x steps of y
/// processors, one cell each. `color` must be kNoColor-initialized, size
/// n. The step-by-step referee of `walkdown`'s first phase.
template <class Exec>
void walkdown1(Exec& exec, const list::LinkedList& list, const Layout2D& lay,
               const std::vector<index_t>& pred,
               std::vector<std::uint8_t>& color) {
  const auto& next = list.next_array();
  for (std::size_t t = 0; t < lay.rows; ++t) {
    exec.step(lay.cols, [&](std::size_t j, auto&& m) {
      const index_t v = m.rd(lay.cell_node, j * lay.rows + t);
      if (v == knil) return;  // padding cell
      const index_t s = m.rd(next, static_cast<std::size_t>(v));
      if (s == knil) return;  // tail: no pointer
      if (m.rd(lay.node_row, static_cast<std::size_t>(v)) ==
          m.rd(lay.node_row, static_cast<std::size_t>(s)))
        return;  // intra-row: WalkDown2's job
      const index_t pv = m.rd(pred, static_cast<std::size_t>(v));
      const std::uint8_t before =
          pv == knil ? kNoColor : m.rd(color, static_cast<std::size_t>(pv));
      const std::uint8_t after = m.rd(color, static_cast<std::size_t>(s));
      m.wr(color, static_cast<std::size_t>(v),
           smallest_free_color(before, after));
    });
  }
}

/// Per-step trace of WalkDown2, kept for the Lemma 7 / Corollary audits
/// (E8): handled_at[v] = the step at which node v's cell was handled.
/// `handled_at` is an arena lease (move-only, recycled like Layout2D's).
struct WalkDown2Trace {
  pram::ScratchVec<index_t> handled_at;
  std::size_t steps = 0;
};

/// WalkDown2 (Lemma 7): walk the sorted columns with (count, index),
/// labeling intra-row pointers. 2x−1 steps of y processors. The
/// step-by-step referee of `walkdown`'s second phase.
template <class Exec>
WalkDown2Trace walkdown2(Exec& exec, const list::LinkedList& list,
                         const Layout2D& lay,
                         const std::vector<index_t>& pred,
                         std::vector<std::uint8_t>& color) {
  const std::size_t n = list.size();
  const auto& next = list.next_array();
  WalkDown2Trace trace;
  trace.handled_at = pram::scratch<index_t>(exec, n, knil);
  const std::size_t total_steps = lay.rows == 0 ? 0 : 2 * lay.rows - 1;
  trace.steps = total_steps;

  auto count_h = pram::scratch<index_t>(exec, lay.cols);
  auto index_h = pram::scratch<index_t>(exec, lay.cols);
  std::vector<index_t>& count = *count_h;
  std::vector<index_t>& index = *index_h;

  exec.step(lay.cols, [&](std::size_t j, auto&& m) {
    m.wr(count, j, index_t{0});
    m.wr(index, j, index_t{0});
  });

  for (std::size_t k = 0; k < total_steps; ++k) {
    exec.step(lay.cols, [&](std::size_t j, auto&& m) {
      const index_t idx = m.rd(index, j);
      if (idx >= lay.rows) return;  // column fully walked
      const index_t v = m.rd(lay.cell_node, j * lay.rows + idx);
      if (v == knil) {  // padding: walk straight past
        m.wr(index, j, static_cast<index_t>(idx + 1));
        return;
      }
      const index_t cnt = m.rd(count, j);
      const index_t key = m.rd(lay.node_key, static_cast<std::size_t>(v));
      if (key != cnt) {  // idle in this row, advance the count
        m.wr(count, j, static_cast<index_t>(cnt + 1));
        return;
      }
      // "Mark the cell": handle the pointer if it is intra-row.
      m.wr(trace.handled_at, static_cast<std::size_t>(v),
           static_cast<index_t>(k));
      const index_t s = m.rd(next, static_cast<std::size_t>(v));
      if (s != knil &&
          m.rd(lay.node_row, static_cast<std::size_t>(v)) ==
              m.rd(lay.node_row, static_cast<std::size_t>(s))) {
        const index_t pv = m.rd(pred, static_cast<std::size_t>(v));
        const std::uint8_t before =
            pv == knil ? kNoColor
                       : m.rd(color, static_cast<std::size_t>(pv));
        const std::uint8_t after =
            m.rd(color, static_cast<std::size_t>(s));
        m.wr(color, static_cast<std::size_t>(v),
             smallest_free_color(before, after));
      }
      m.wr(index, j, static_cast<index_t>(idx + 1));
    });
  }
  return trace;
}

namespace detail {
/// Color pointers bucket[from, to), none adjacent to another, from their
/// neighbour pointers' current colors.
inline void color_span(const index_t* bucket, const index_t* pr,
                       const index_t* nx, std::uint8_t* col,
                       std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const index_t v = bucket[i];
    const index_t pv = pr[v];
    col[v] = smallest_free_color(pv == knil ? kNoColor : col[pv], col[nx[v]]);
  }
}
}  // namespace detail

/// WalkDown1 then WalkDown2: color every pointer in 3x steps of y
/// processors (x for WalkDown1, one that zeroes WalkDown2's (count, index)
/// pairs, 2x−1 for its walk). `color` must be kNoColor-initialized, size n.
/// On fused backends step b visits bucket b of the closed form (header):
/// e_v sits in bucket row(v) if inter-row and x + row(v) + key(v) if
/// intra-row, and the sweep's column range [lo, hi) takes the slice
/// [⌊lo·len/y⌋, ⌊hi·len/y⌋) of it, so pooled chunks split it disjointly.
/// No two pointers in a bucket are adjacent (Lemma 6, Corollary 2), so no
/// visit reads a color another visit of its step writes.
template <class Exec>
void walkdown(Exec& exec, const list::LinkedList& list, const Layout2D& lay,
              const std::vector<index_t>& pred,
              std::vector<std::uint8_t>& color) {
  if constexpr (pram::has_sweep_v<Exec>) {
    if (pram::tuning().fused) {
      const std::size_t n = list.size();
      const std::size_t rows = lay.rows;
      const std::size_t cols = lay.cols;
      const std::size_t buckets = 3 * rows - 1;
      const index_t* nx = list.next_array().data();
      const index_t* pr = pred.data();
      const index_t* rowv = lay.node_row.vec().data();
      const index_t* keyv = lay.node_key.vec().data();
      std::uint8_t* col = color.data();
      auto step_of = [=](std::size_t v) -> std::size_t {
        const index_t r = rowv[v];
        return r != rowv[nx[v]] ? r : rows + r + keyv[v];
      };
      // end[b + 1] counts bucket b, then holds its start; the scatter
      // advances end[b] to bucket b's end, so bucket b is [end[b−1], end[b]).
      auto end_h = pram::scratch<index_t>(exec, buckets + 1);
      index_t* end = end_h.vec().data();
      for (std::size_t v = 0; v < n; ++v)
        if (nx[v] != knil) ++end[step_of(v) + 1];
      for (std::size_t b = 0; b < buckets; ++b) end[b + 1] += end[b];
      auto order_h = pram::scratch<index_t>(exec, end[buckets]);
      index_t* order = order_h.vec().data();
      for (std::size_t v = 0; v < n; ++v)
        if (nx[v] != knil) order[end[step_of(v)]++] = static_cast<index_t>(v);

      auto handle_step = [&](std::size_t b) {
        const std::size_t first = b == 0 ? 0 : end[b - 1];
        const std::size_t len = end[b] - first;
        const index_t* bucket = order + first;
        exec.sweep(cols, 1, [=](std::size_t lo, std::size_t hi) {
          detail::color_span(bucket, pr, nx, col, lo * len / cols,
                             hi * len / cols);
        });
      };
      for (std::size_t b = 0; b < rows; ++b) handle_step(b);  // WalkDown1
      // WalkDown2's (count, index) step: the closed form needs no pairs.
      exec.sweep(cols, 1, [](std::size_t, std::size_t) {});
      for (std::size_t b = rows; b < buckets; ++b) handle_step(b);
      return;
    }
  }
  walkdown1(exec, list, lay, pred, color);
  walkdown2(exec, list, lay, pred, color);
}

// ---------------------------------------------------------------------------
// EREW variants. The CREW WalkDowns read three neighbour cells per handled
// pointer (the successor's row, and both neighbour pointers' colors);
// under EREW those reads are replaced by per-node inboxes: the successor
// row is fanned out once after the layout is built, and every processor
// that colors a pointer *pushes* the color to the two neighbours' inboxes
// in the same step (exclusive writes — one predecessor, one successor;
// adjacent pointers are handled at distinct steps, so the push never
// collides with the read). Audited by pram::Machine(kEREW) in
// tests/erew_test.cpp.
// ---------------------------------------------------------------------------

/// Shared EREW state for the two WalkDown phases (arena leases, move-only).
struct ErewWalkState {
  pram::ScratchVec<index_t> row_next;       ///< node_row[suc(v)], knil if none
  pram::ScratchVec<std::uint8_t> col_prev;  ///< color of e_pred(v) so far
  pram::ScratchVec<std::uint8_t> col_next;  ///< color of e_suc(v) so far
};

template <class Exec>
ErewWalkState make_erew_walk_state(Exec& exec, const list::LinkedList& list,
                                   const Layout2D& lay,
                                   const std::vector<index_t>& pred) {
  const std::size_t n = list.size();
  ErewWalkState st;
  st.row_next = pram::scratch<index_t>(exec, n, knil);
  st.col_prev = pram::scratch<std::uint8_t>(exec, n, kNoColor);
  st.col_next = pram::scratch<std::uint8_t>(exec, n, kNoColor);
  pull_from_next(exec, list, pred, lay.node_row.vec(), st.row_next.vec(),
                 /*circular=*/false);
  return st;
}

namespace detail {
/// Color pointer e_v from its inboxes and push the choice to both
/// neighbours. All accesses exclusive.
template <class Mem>
void erew_color_and_push(Mem&& m, const std::vector<index_t>& pred,
                         ErewWalkState& st,
                         std::vector<std::uint8_t>& color, index_t v,
                         index_t s) {
  const std::uint8_t pick = smallest_free_color(
      m.rd(st.col_prev, static_cast<std::size_t>(v)),
      m.rd(st.col_next, static_cast<std::size_t>(v)));
  m.wr(color, static_cast<std::size_t>(v), pick);
  // e_v is the predecessor pointer of node s and the successor pointer of
  // node pred(v).
  m.wr(st.col_prev, static_cast<std::size_t>(s), pick);
  const index_t pv = m.rd(pred, static_cast<std::size_t>(v));
  if (pv != knil)
    m.wr(st.col_next, static_cast<std::size_t>(pv), pick);
}
}  // namespace detail

/// EREW WalkDown1: same schedule as walkdown1, inbox-based coloring.
template <class Exec>
void walkdown1_erew(Exec& exec, const list::LinkedList& list,
                    const Layout2D& lay, const std::vector<index_t>& pred,
                    ErewWalkState& st, std::vector<std::uint8_t>& color) {
  const auto& next = list.next_array();
  for (std::size_t t = 0; t < lay.rows; ++t) {
    exec.step(lay.cols, [&](std::size_t j, auto&& m) {
      const index_t v = m.rd(lay.cell_node, j * lay.rows + t);
      if (v == knil) return;
      const index_t s = m.rd(next, static_cast<std::size_t>(v));
      if (s == knil) return;
      if (m.rd(lay.node_row, static_cast<std::size_t>(v)) ==
          m.rd(st.row_next, static_cast<std::size_t>(v)))
        return;  // intra-row
      detail::erew_color_and_push(m, pred, st, color, v, s);
    });
  }
}

/// EREW WalkDown2: same (count, index) schedule as walkdown2, inbox-based
/// coloring.
template <class Exec>
WalkDown2Trace walkdown2_erew(Exec& exec, const list::LinkedList& list,
                              const Layout2D& lay,
                              const std::vector<index_t>& pred,
                              ErewWalkState& st,
                              std::vector<std::uint8_t>& color) {
  const std::size_t n = list.size();
  const auto& next = list.next_array();
  WalkDown2Trace trace;
  trace.handled_at = pram::scratch<index_t>(exec, n, knil);
  const std::size_t total_steps = lay.rows == 0 ? 0 : 2 * lay.rows - 1;
  trace.steps = total_steps;

  auto count_h = pram::scratch<index_t>(exec, lay.cols);
  auto index_h = pram::scratch<index_t>(exec, lay.cols);
  std::vector<index_t>& count = *count_h;
  std::vector<index_t>& index = *index_h;
  exec.step(lay.cols, [&](std::size_t j, auto&& m) {
    m.wr(count, j, index_t{0});
    m.wr(index, j, index_t{0});
  });

  for (std::size_t k = 0; k < total_steps; ++k) {
    exec.step(lay.cols, [&](std::size_t j, auto&& m) {
      const index_t idx = m.rd(index, j);
      if (idx >= lay.rows) return;
      const index_t v = m.rd(lay.cell_node, j * lay.rows + idx);
      if (v == knil) {
        m.wr(index, j, static_cast<index_t>(idx + 1));
        return;
      }
      const index_t cnt = m.rd(count, j);
      const index_t key = m.rd(lay.node_key, static_cast<std::size_t>(v));
      if (key != cnt) {
        m.wr(count, j, static_cast<index_t>(cnt + 1));
        return;
      }
      m.wr(trace.handled_at, static_cast<std::size_t>(v),
           static_cast<index_t>(k));
      const index_t s = m.rd(next, static_cast<std::size_t>(v));
      if (s != knil &&
          m.rd(lay.node_row, static_cast<std::size_t>(v)) ==
              m.rd(st.row_next, static_cast<std::size_t>(v))) {
        detail::erew_color_and_push(m, pred, st, color, v, s);
      }
      m.wr(index, j, static_cast<index_t>(idx + 1));
    });
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Match4's steps 2–4, shared with the bare WalkDown schedules of the
// registry.
// ---------------------------------------------------------------------------

/// Step 2: copy the set numbers (< rows) as keys in one step of n
/// processors, then sort every column by them.
template <class Exec>
Layout2D sort_columns(Exec& exec, const std::vector<label_t>& labels,
                      std::size_t rows) {
  const std::size_t n = labels.size();
  auto keys_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& keys = *keys_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(keys, v, static_cast<index_t>(m.rd(labels, v)));
  });
  return build_layout(exec, n, keys, rows);
}

/// Steps 3–4: one step clears every pointer's color to kNoColor, then
/// WalkDown1 and WalkDown2 color them (the inbox walks when `erew`).
template <class Exec>
pram::ScratchVec<std::uint8_t> walkdown_colors(
    Exec& exec, const list::LinkedList& list, const Layout2D& lay,
    const std::vector<index_t>& pred, bool erew) {
  const std::size_t n = list.size();
  auto color_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& color = *color_h;
  exec.step(n, [&](std::size_t v, auto&& m) { m.wr(color, v, kNoColor); });
  if (erew) {
    ErewWalkState st = make_erew_walk_state(exec, list, lay, pred);
    walkdown1_erew(exec, list, lay, pred, st, color);
    walkdown2_erew(exec, list, lay, pred, st, color);
  } else {
    walkdown(exec, list, lay, pred, color);
  }
  return color_h;
}

}  // namespace llmp::core
