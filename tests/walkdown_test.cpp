// Audits of the scheduling machinery of §3: the 2D layout, WalkDown1
// (Lemma 6) and WalkDown2 (Lemma 7, Corollaries 1–2), and the combined
// 3-set partition Match4 builds from them.
#include "core/walkdown.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "core/gather.h"
#include "core/match_result.h"
#include "core/verify.h"
#include "list/generators.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/thread_pool.h"

namespace llmp::core {
namespace {

struct WdCtx {
  list::LinkedList list;
  std::vector<index_t> keys;   // matching-set numbers, < rows
  std::vector<index_t> pred;
  label_t bound;
};

WdCtx make_ctx(std::size_t n, int rounds, std::uint64_t seed) {
  WdCtx s{list::generators::random_list(n, seed), {}, {}, 0};
  pram::SeqExec exec(8);
  std::vector<label_t> labels;
  init_address_labels(exec, n, labels);
  relabel_rounds(exec, s.list, labels, rounds,
                 BitRule::kMostSignificant);
  s.bound = n > 1 ? bound_after_rounds(n, rounds) : 1;
  s.keys.resize(n);
  for (index_t v = 0; v < n; ++v)
    s.keys[v] = static_cast<index_t>(labels[v]);
  s.pred = s.list.predecessors();
  return s;
}

TEST(Layout2D, ColumnsAreSortedAndComplete) {
  const std::size_t n = 1000;
  WdCtx s = make_ctx(n, 2, 3);
  pram::SeqExec exec(8);
  Layout2D lay = build_layout(exec, n, s.keys, s.bound);
  EXPECT_EQ(lay.rows, static_cast<std::size_t>(s.bound));
  EXPECT_EQ(lay.cols, (n + lay.rows - 1) / lay.rows);
  std::vector<bool> seen(n, false);
  for (std::size_t j = 0; j < lay.cols; ++j) {
    index_t prev_key = 0;
    for (std::size_t r = 0; r < lay.rows; ++r) {
      const index_t v = lay.cell_node[j * lay.rows + r];
      if (v == knil) continue;
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
      EXPECT_EQ(lay.node_row[v], r);
      // Node stays in its own column.
      EXPECT_EQ(v / lay.rows, j);
      // Keys non-decreasing down the column.
      EXPECT_GE(s.keys[v], prev_key);
      prev_key = s.keys[v];
    }
  }
  for (index_t v = 0; v < n; ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(WalkDown2, Lemma7CellInRowRIsHandledAtStepRPlusKey) {
  const std::size_t n = 2000;
  WdCtx s = make_ctx(n, 2, 11);
  pram::SeqExec exec(8);
  Layout2D lay = build_layout(exec, n, s.keys, s.bound);
  std::vector<std::uint8_t> color(n, kNoColor);
  walkdown1(exec, s.list, lay, s.pred, color);
  WalkDown2Trace trace = walkdown2(exec, s.list, lay, s.pred, color);
  for (index_t v = 0; v < n; ++v) {
    ASSERT_NE(trace.handled_at[v], knil) << "Corollary 1: all cells handled";
    EXPECT_EQ(trace.handled_at[v], lay.node_row[v] + s.keys[v])
        << "Lemma 7 violated at node " << v;
  }
}

TEST(WalkDown2, Corollary1FinishesByStep2XMinus2) {
  const std::size_t n = 513;  // ragged last column
  WdCtx s = make_ctx(n, 3, 5);
  pram::SeqExec exec(8);
  Layout2D lay = build_layout(exec, n, s.keys, s.bound);
  std::vector<std::uint8_t> color(n, kNoColor);
  walkdown1(exec, s.list, lay, s.pred, color);
  WalkDown2Trace trace = walkdown2(exec, s.list, lay, s.pred, color);
  EXPECT_EQ(trace.steps, 2 * lay.rows - 1);
  for (index_t v = 0; v < n; ++v)
    EXPECT_LE(trace.handled_at[v], 2 * lay.rows - 2);
}

TEST(WalkDown2, Corollary2SameRowSameStepSameSet) {
  const std::size_t n = 4096;
  WdCtx s = make_ctx(n, 2, 19);
  pram::SeqExec exec(8);
  Layout2D lay = build_layout(exec, n, s.keys, s.bound);
  std::vector<std::uint8_t> color(n, kNoColor);
  walkdown1(exec, s.list, lay, s.pred, color);
  WalkDown2Trace trace = walkdown2(exec, s.list, lay, s.pred, color);
  // Group handled cells by (step, row): all must share one key.
  std::map<std::pair<index_t, index_t>, index_t> key_of;
  for (index_t v = 0; v < n; ++v) {
    const auto at = std::make_pair(trace.handled_at[v], lay.node_row[v]);
    const auto res = key_of.emplace(at, s.keys[v]);
    EXPECT_EQ(res.first->second, s.keys[v])
        << "two sets in row " << at.second << " at step " << at.first;
  }
}

TEST(WalkDown, CombinedPassesGiveProper3SetPartition) {
  for (std::size_t n : {2u, 3u, 17u, 300u, 5000u}) {
    for (int rounds : {1, 2, 3}) {
      WdCtx s = make_ctx(n, rounds, n + rounds);
      pram::SeqExec exec(8);
      Layout2D lay = build_layout(exec, n, s.keys, s.bound);
      std::vector<std::uint8_t> color(n, kNoColor);
      walkdown1(exec, s.list, lay, s.pred, color);
      walkdown2(exec, s.list, lay, s.pred, color);
      std::vector<label_t> plabel(n, 0);
      for (index_t v = 0; v < n; ++v) {
        if (!s.list.has_pointer(v)) continue;
        ASSERT_NE(color[v], kNoColor) << "pointer e_" << v << " unlabeled";
        ASSERT_LT(color[v], 3);
        plabel[v] = color[v];
      }
      verify::check_pointer_partition(s.list, plabel);
    }
  }
}

TEST(WalkDown, AdjacentPointersNeverHandledConcurrently) {
  // The safety property behind Lemma 6 and the shared palette: no two
  // adjacent pointers are processed at the same (phase, step). Encode
  // phase 1 steps as row(tail), phase 2 as 2·rows + handled_at.
  const std::size_t n = 3000;
  WdCtx s = make_ctx(n, 2, 23);
  pram::SeqExec exec(8);
  Layout2D lay = build_layout(exec, n, s.keys, s.bound);
  std::vector<std::uint8_t> color(n, kNoColor);
  walkdown1(exec, s.list, lay, s.pred, color);
  WalkDown2Trace trace = walkdown2(exec, s.list, lay, s.pred, color);
  const auto& next = s.list.next_array();
  auto handle_time = [&](index_t v) -> std::size_t {
    const bool intra = lay.node_row[v] == lay.node_row[next[v]];
    return intra ? 2 * lay.rows + trace.handled_at[v] : lay.node_row[v];
  };
  for (index_t v = 0; v < n; ++v) {
    if (!s.list.has_pointer(v)) continue;
    const index_t w = next[v];
    if (!s.list.has_pointer(w)) continue;
    EXPECT_NE(handle_time(v), handle_time(w))
        << "adjacent pointers e_" << v << ", e_" << w;
  }
}

TEST(WalkDown, MachineConfirmsCrewLegality) {
  const std::size_t n = 700;
  WdCtx s = make_ctx(n, 2, 31);
  pram::Machine m(pram::Mode::kCREW, 8);
  Layout2D lay = build_layout(m, n, s.keys, s.bound);
  std::vector<std::uint8_t> color(n, kNoColor);
  EXPECT_NO_THROW({
    walkdown1(m, s.list, lay, s.pred, color);
    walkdown2(m, s.list, lay, s.pred, color);
  });
}

// A key of `rows` or more has no histogram cell; the layout rejects it
// before the write, whether the column histograms sit on the stack
// (rows <= 64) or in one leased slice per column (rows > 64).
TEST(Layout2D, KeyEqualToTheRowsIsRejected) {
  for (const std::size_t rows : {std::size_t{34}, std::size_t{100}}) {
    const std::size_t n = 3 * rows;
    std::vector<index_t> keys(n, 0);
    keys[n / 2] = static_cast<index_t>(rows);
    pram::SeqExec exec(8);
    EXPECT_THROW(build_layout(exec, n, keys, rows), check_error)
        << "rows=" << rows;
  }
}

TEST(WalkDown1, InterRowOnlyListIsFullyLabeledByPhaseOne) {
  // Lemma 6's hypothesis: with x = n rows (one column), every pointer is
  // inter-row, and WalkDown1 alone 3-labels the whole list.
  const std::size_t n = 200;
  const auto list = list::generators::random_list(n, 41);
  pram::SeqExec exec(8);
  std::vector<index_t> keys(n);
  for (index_t v = 0; v < n; ++v) keys[v] = v;  // distinct keys: n rows
  Layout2D lay = build_layout(exec, n, keys, n);
  auto pred = list.predecessors();
  std::vector<std::uint8_t> color(n, kNoColor);
  walkdown1(exec, list, lay, pred, color);
  std::vector<label_t> plabel(n, 0);
  for (index_t v = 0; v < n; ++v) {
    if (!list.has_pointer(v)) continue;
    ASSERT_LT(color[v], 3) << v;
    plabel[v] = color[v];
  }
  verify::check_pointer_partition(list, plabel);
}

// ---- the closed form equals the walk --------------------------------------

/// The list shapes the closed-form checks run over.
std::vector<std::pair<std::string, list::LinkedList>> shapes(std::size_t n) {
  std::vector<std::pair<std::string, list::LinkedList>> out;
  out.emplace_back("random", list::generators::random_list(n, 97 + n));
  out.emplace_back("identity", list::generators::identity_list(n));
  out.emplace_back("reverse", list::generators::reverse_list(n));
  std::size_t stride = 7;  // strided_list needs gcd(stride, n) = 1
  while (std::gcd(stride, n) != 1) --stride;
  out.emplace_back("strided", list::generators::strided_list(n, stride));
  out.emplace_back("blocked", list::generators::blocked_list(n, 16, 5 + n));
  return out;
}

/// Colors and the (depth, time_p, work) of one WalkDown run.
struct Colored {
  std::vector<std::uint8_t> color;
  pram::Stats cost;
};

template <class Exec>
Colored run_walkdown(Exec& exec, const list::LinkedList& lst,
                     const Layout2D& lay, const std::vector<index_t>& pred,
                     bool referee) {
  Colored out;
  out.color.assign(lst.size(), kNoColor);
  const pram::Stats start = exec.stats();
  if (referee) {
    walkdown1(exec, lst, lay, pred, out.color);
    walkdown2(exec, lst, lay, pred, out.color);
  } else {
    walkdown(exec, lst, lay, pred, out.color);
  }
  out.cost = exec.stats() - start;
  return out;
}

/// Runs the step-by-step walks on a CREW Machine and the production
/// `walkdown` on SeqExec and on ParallelExec at several pinned thresholds
/// (threshold 1 pools every sweep: buckets split across four chunks,
/// some slices empty, and a layout of fewer columns than chunks leaves
/// whole chunks idle; cols + 1 runs every sweep inline). Every backend
/// must give the Machine's colors and its depth, time_p and work, and
/// leave the byte cut's contract (core/cut.h): every node with a pointer
/// has a color < 3, and exactly the tail keeps kNoColor.
void expect_closed_form_matches_walk(const list::LinkedList& lst,
                                     const std::vector<index_t>& keys,
                                     std::size_t rows,
                                     const std::string& what) {
  const std::size_t n = lst.size();
  constexpr std::size_t kProcs = 16;
  pram::SeqExec plain(kProcs);
  const Layout2D lay = build_layout(plain, n, keys, rows);
  const auto pred = lst.predecessors();
  pram::Machine machine(pram::Mode::kCREW, kProcs);
  const Colored want = run_walkdown(machine, lst, lay, pred, true);
  auto expect_same = [&](const Colored& got, const std::string& backend) {
    EXPECT_EQ(got.color, want.color) << what << " on " << backend;
    EXPECT_EQ(got.cost.depth, want.cost.depth) << what << " on " << backend;
    EXPECT_EQ(got.cost.time_p, want.cost.time_p) << what << " on " << backend;
    EXPECT_EQ(got.cost.work, want.cost.work) << what << " on " << backend;
    std::size_t off_contract = 0;
    for (index_t v = 0; v < n; ++v)
      off_contract += v == lst.tail() ? got.color[v] != kNoColor
                                      : got.color[v] >= 3;
    EXPECT_EQ(off_contract, 0u) << what << " on " << backend;
  };
  EXPECT_EQ(want.cost.depth, 3 * rows) << what;
  pram::SeqExec seq(kProcs);
  expect_same(run_walkdown(seq, lst, lay, pred, false), "SeqExec");
  static pram::ThreadPool pool(3);
  for (std::size_t threshold : {std::size_t{1}, std::size_t{2},
                                lay.cols + 1}) {
    pram::ParallelExec par(kProcs, pool, threshold);
    expect_same(run_walkdown(par, lst, lay, pred, false),
                "ParallelExec threshold " + std::to_string(threshold));
  }
}

TEST(WalkDownClosedForm, ColorsAndCostMatchTheMachineWalk) {
  for (int rounds : {1, 2, 3}) {
    // One row count x per round count, from the largest list; every
    // smaller list's keys stay below it, so n = x − 1, x, x + 1 lay out as
    // one ragged column, one full column and a second one-cell column.
    const std::size_t x = bound_after_rounds(65537, rounds);
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          x - 1, x, x + 1, std::size_t{513},
                          std::size_t{4096}, std::size_t{65537}}) {
      for (auto& [shape, lst] : shapes(n)) {
        pram::SeqExec exec(8);
        std::vector<label_t> labels;
        init_address_labels(exec, n, labels);
        if (n > 1)  // as in Match4: a lone node keeps its address label
          relabel_rounds(exec, lst, labels, rounds, BitRule::kMostSignificant);
        std::vector<index_t> keys(n);
        for (index_t v = 0; v < n; ++v) {
          ASSERT_LT(labels[v], x);
          keys[v] = static_cast<index_t>(labels[v]);
        }
        expect_closed_form_matches_walk(
            lst, keys, x,
            shape + " n=" + std::to_string(n) +
                " rounds=" + std::to_string(rounds));
      }
    }
  }
}

TEST(WalkDownClosedForm, InterRowOnlyLayoutMatchesTheMachineWalk) {
  // rows = n: one column, every pointer inter-row, WalkDown2 colors
  // nothing — and the layout's histograms outgrow the stack.
  for (std::size_t n : {1u, 2u, 3u, 65u, 200u}) {
    std::vector<index_t> keys(n);
    for (index_t v = 0; v < n; ++v) keys[v] = v;
    for (auto& [shape, lst] : shapes(n))
      expect_closed_form_matches_walk(lst, keys, n,
                                      shape + " n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace llmp::core
