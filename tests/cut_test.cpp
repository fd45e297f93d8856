// Differential tests of the fused cut (Match1 steps 3–4, core/cut.h).
//
// The fused path reads pointer existence from one label byte and walks
// the runs in interleaved lanes; the step path, run on pram::Machine, is
// its referee. For every label source — Match4's WalkDown colors, Match1's
// and Match3's constant labels, and crafted patterns whose longest runs
// cross the pooled chunks' seams — the fused cut on SeqExec and on pooled
// ParallelExec must give the Machine's matching, CutStats and
// (depth, time_p, work).
#include "core/cut.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/gather.h"
#include "core/lookup_table.h"
#include "core/match3.h"
#include "core/match4.h"
#include "core/partition_fn.h"
#include "core/walkdown.h"
#include "list/generators.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/thread_pool.h"

namespace llmp::core {
namespace {

constexpr std::size_t kProcs = 16;

std::vector<std::pair<std::string, list::LinkedList>> shapes(std::size_t n) {
  std::vector<std::pair<std::string, list::LinkedList>> out;
  out.emplace_back("random", list::generators::random_list(n, 31 + n));
  out.emplace_back("identity", list::generators::identity_list(n));
  out.emplace_back("reverse", list::generators::reverse_list(n));
  std::size_t stride = 7;  // strided_list needs gcd(stride, n) = 1
  while (std::gcd(stride, n) != 1) --stride;
  out.emplace_back("strided", list::generators::strided_list(n, stride));
  out.emplace_back("blocked", list::generators::blocked_list(n, 16, 3 + n));
  return out;
}

const std::vector<std::size_t>& sizes() {
  static const std::vector<std::size_t> kSizes{2,  3,     4,
                                               17, 32768, 32775};
  return kSizes;
}

/// Pointer labels in list order: the pointer at distance d from the head
/// gets pattern[d % pattern.size()].
std::vector<label_t> along(const list::LinkedList& lst,
                           const std::vector<label_t>& pattern) {
  std::vector<label_t> labels(lst.size(), 0);
  std::size_t d = 0;
  for (index_t v = lst.head(); v != knil; v = lst.next(v))
    labels[v] = pattern[d++ % pattern.size()];
  return labels;
}

/// 0, 1, …, A−1, …, 1: the longest valley-free climb and descent over an
/// alphabet of A. Repeated, every interior run is 2A−3 pointers long;
/// followed by one more 0, the whole pattern is one run of 2A−1.
std::vector<label_t> mountain(label_t alphabet) {
  std::vector<label_t> p;
  for (label_t a = 0; a < alphabet; ++a) p.push_back(a);
  for (label_t a = alphabet - 1; a-- > 1;) p.push_back(a);
  return p;
}

std::vector<label_t> match1_labels(const list::LinkedList& lst) {
  pram::SeqExec exec(kProcs);
  std::vector<label_t> labels;
  init_address_labels(exec, lst.size(), labels);
  reduce_to_constant(exec, lst, labels, BitRule::kMostSignificant,
                     /*labels_are_addresses=*/true);
  return labels;
}

/// Match3's steps 1–4 as match3_into runs them.
std::vector<label_t> match3_labels(const list::LinkedList& lst) {
  const std::size_t n = lst.size();
  const Match3Options opt;
  const Match3Plan plan = plan_match3(n, opt);
  pram::SeqExec exec(kProcs);
  std::vector<label_t> labels;
  init_address_labels(exec, n, labels);
  if (n > 1)
    relabel_rounds(exec, lst, labels, plan.crunch_rounds, opt.rule,
                   /*labels_are_addresses=*/true);
  if (n > 1 && plan.needs_table) {
    const MatchingLookupTable& table = cached_lookup_table(
        plan.component_bits, 1 << plan.gather_rounds, opt.rule,
        plan.collapse_width);
    gather_labels(exec, lst, labels, plan.component_bits,
                  plan.gather_rounds);
    lookup_labels(exec, table, labels);
  }
  return labels;
}

/// Match4's steps 1–4 (three relabel rounds) as match4_into runs them on
/// a fused backend: the closed-form WalkDown's byte colors.
std::vector<std::uint8_t> match4_colors(const list::LinkedList& lst) {
  const std::size_t n = lst.size();
  pram::SeqExec exec(kProcs);
  const auto pred = lst.predecessors();
  std::vector<label_t> labels;
  init_address_labels(exec, n, labels);
  relabel_rounds(exec, lst, labels, 3, BitRule::kMostSignificant,
                 /*labels_are_addresses=*/true);
  std::vector<index_t> keys(n);
  for (index_t v = 0; v < n; ++v) keys[v] = static_cast<index_t>(labels[v]);
  const auto rows = std::max<label_t>(bound_after_rounds(n, 3), 2);
  const Layout2D lay = build_layout(exec, n, keys, rows);
  std::vector<std::uint8_t> color(n, kNoColor);
  walkdown(exec, lst, lay, pred, color);
  return color;
}

struct CutRun {
  std::vector<std::uint8_t> in_matching;
  CutStats stats;
  pram::Stats cost;
};

/// Runs `cut` on the CREW Machine (the step path) and on SeqExec and
/// ParallelExec at thresholds 1, 2 and 64 (the fused path; threshold 1
/// and 2 pool every sweep, 64 leaves the smallest lists inline), and
/// expects every fused run to match the Machine's.
template <class Cut>
CutRun expect_fused_matches_machine(const Cut& cut, const std::string& what) {
  auto run = [&](auto& exec) {
    CutRun out;
    const pram::Stats start = exec.stats();
    out.stats = cut(exec, out.in_matching);
    out.cost = exec.stats() - start;
    return out;
  };
  pram::Machine machine(pram::Mode::kCREW, kProcs);
  const CutRun want = run(machine);
  auto expect_same = [&](const CutRun& got, const std::string& backend) {
    EXPECT_EQ(got.in_matching, want.in_matching) << what << " on " << backend;
    EXPECT_EQ(got.stats.cuts, want.stats.cuts) << what << " on " << backend;
    EXPECT_EQ(got.stats.max_run, want.stats.max_run)
        << what << " on " << backend;
    EXPECT_EQ(got.cost.depth, want.cost.depth) << what << " on " << backend;
    EXPECT_EQ(got.cost.time_p, want.cost.time_p) << what << " on " << backend;
    EXPECT_EQ(got.cost.work, want.cost.work) << what << " on " << backend;
  };
  pram::SeqExec seq(kProcs);
  expect_same(run(seq), "SeqExec");
  static pram::ThreadPool pool(3);
  for (std::size_t threshold : {1, 2, 64}) {
    pram::ParallelExec par(kProcs, pool, threshold);
    expect_same(run(par),
                "ParallelExec threshold " + std::to_string(threshold));
  }
  return want;
}

/// Match1/Match3's entry: cut_and_walk narrows wide labels on the fused
/// backends and runs the step path on the Machine.
CutRun expect_labels_cut_alike(const list::LinkedList& lst,
                               const std::vector<label_t>& labels,
                               label_t alphabet, const std::string& what) {
  const auto pred = lst.predecessors();
  return expect_fused_matches_machine(
      [&](auto& exec, std::vector<std::uint8_t>& m) {
        return cut_and_walk(exec, lst, pred, labels, alphabet, m);
      },
      what);
}

TEST(CutKernel, Match4ColorsCutAlikeOnEveryBackend) {
  for (std::size_t n : sizes())
    for (auto& [shape, lst] : shapes(n)) {
      const auto color = match4_colors(lst);
      const auto pred = lst.predecessors();
      expect_fused_matches_machine(
          [&](auto& exec, std::vector<std::uint8_t>& m) {
            return detail::cut_colors(exec, lst, pred, color,
                                      /*erew=*/false, m);
          },
          shape + " n=" + std::to_string(n));
    }
}

TEST(CutKernel, Match1AndMatch3LabelsCutAlikeOnEveryBackend) {
  for (std::size_t n : sizes())
    for (auto& [shape, lst] : shapes(n)) {
      const std::string what = shape + " n=" + std::to_string(n);
      expect_labels_cut_alike(lst, match1_labels(lst), kFixedPointBound,
                              "match1 " + what);
      expect_labels_cut_alike(lst, match3_labels(lst), kFixedPointBound,
                              "match3 " + what);
    }
}

TEST(CutKernel, MountainPatternsCutAlikeOnEveryBackend) {
  for (label_t alphabet : {2, 3, 6, 255})
    for (std::size_t n : sizes())
      for (auto& [shape, lst] : shapes(n)) {
        const CutRun r = expect_labels_cut_alike(
            lst, along(lst, mountain(alphabet)), alphabet,
            "A=" + std::to_string(alphabet) + " " + shape +
                " n=" + std::to_string(n));
        if (n > 2 * alphabet) {  // a whole interior run fits
          EXPECT_GE(r.stats.max_run, 2 * alphabet - 3) << shape;
        }
      }
}

TEST(CutKernel, MaximalRunsCrossChunkSeams) {
  // 0 … A−1 … 0 along a list of 2A nodes is one run of 2A−1 pointers,
  // the most the alphabet allows, crossing every seam of the pooled
  // chunks. Two such climbs sharing their middle 0 are cut there, into
  // two runs of 2A−2.
  for (label_t alphabet : {2, 3, 6, 255}) {
    const auto up = mountain(alphabet);  // 0 … A−1 … 1
    for (std::size_t copies : {1, 2}) {
      std::vector<label_t> labels{0};
      for (std::size_t c = 0; c < copies; ++c) {
        labels.insert(labels.end(), up.begin() + 1, up.end());
        labels.push_back(0);
      }
      labels.push_back(0);  // the tail's, never read as a pointer's
      const std::size_t n = labels.size();
      for (auto& [shape, lst] : shapes(n)) {
        const CutRun r = expect_labels_cut_alike(
            lst, along(lst, labels), alphabet,
            "A=" + std::to_string(alphabet) + " " + shape +
                " copies=" + std::to_string(copies));
        EXPECT_EQ(r.stats.max_run, 2 * alphabet - copies) << shape;
        EXPECT_EQ(r.stats.cuts, copies - 1) << shape;
      }
    }
  }
}

TEST(CutKernel, WideAlphabetTakesTheStepPath) {
  // Label 255 is the byte cut's kNoPointer, so alphabet 256 must not be
  // narrowed; it runs the step path on the fused backends too.
  std::vector<label_t> pattern{0, 255, 1, 254, 2};
  for (auto& [shape, lst] : shapes(300))
    expect_labels_cut_alike(lst, along(lst, pattern), 256, shape);
}

TEST(CutKernel, TailByteMustBeNoPointer) {
  const auto lst = list::generators::random_list(64, 5);
  const auto pred = lst.predecessors();
  std::vector<std::uint8_t> color = match4_colors(lst);
  ASSERT_EQ(color[lst.tail()], kNoPointer);
  pram::SeqExec exec(kProcs);
  std::vector<std::uint8_t> m;
  EXPECT_NO_THROW(cut_and_walk_bytes(exec, lst, pred, color, 3, m));
  color[lst.tail()] = 0;
  EXPECT_THROW(cut_and_walk_bytes(exec, lst, pred, color, 3, m),
               check_error);
  color[lst.tail()] = kNoPointer;
  EXPECT_THROW(cut_and_walk_bytes(exec, lst, pred, color, 256, m),
               check_error);
}

}  // namespace
}  // namespace llmp::core
