// Tests for the application layer: 3-coloring, maximal independent set,
// and both list-ranking algorithms, across shapes and sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "apps/independent_set.h"
#include "apps/list_ranking.h"
#include "apps/three_coloring.h"
#include "core/verify.h"
#include "list/generators.h"
#include "pram/executor.h"
#include "pram/thread_pool.h"

namespace llmp {
namespace {

std::vector<list::LinkedList> shape_suite(std::size_t n, std::uint64_t seed) {
  std::vector<list::LinkedList> suite;
  suite.push_back(list::generators::random_list(n, seed));
  suite.push_back(list::generators::identity_list(n));
  suite.push_back(list::generators::reverse_list(n));
  if (n > 1) {
    std::size_t stride = 5;
    while (std::gcd(stride, n) != 1) ++stride;
    suite.push_back(list::generators::strided_list(n, stride));
  }
  return suite;
}

class AppsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AppsSweep, ThreeColoringIsProper) {
  const std::size_t n = GetParam();
  for (const auto& list : shape_suite(n, 3 * n + 1)) {
    pram::SeqExec exec(16);
    const auto r = apps::three_coloring(exec, list);
    apps::check_coloring(list, r.colors, 3);
  }
}

TEST_P(AppsSweep, IndependentSetIsMaximal) {
  const std::size_t n = GetParam();
  for (const auto& list : shape_suite(n, 5 * n + 2)) {
    pram::SeqExec exec(16);
    const auto r = apps::independent_set(exec, list);
    apps::check_independent_set(list, r.in_set);
    // An MIS of a path has between ceil(n/3) and ceil(n/2) nodes.
    EXPECT_GE(3 * r.size, n);
    EXPECT_LE(2 * r.size, n + 1);
  }
}

TEST_P(AppsSweep, WyllieRankingMatchesOracle) {
  const std::size_t n = GetParam();
  for (const auto& list : shape_suite(n, 7 * n + 3)) {
    pram::SeqExec exec(16);
    const auto r = apps::wyllie_ranking(exec, list);
    EXPECT_EQ(r.rank, apps::sequential_ranking(list));
  }
}

TEST_P(AppsSweep, ContractionRankingMatchesOracle) {
  const std::size_t n = GetParam();
  for (const auto& list : shape_suite(n, 11 * n + 4)) {
    pram::SeqExec exec(16);
    const auto r = apps::contraction_ranking(exec, list);
    EXPECT_EQ(r.rank, apps::sequential_ranking(list));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AppsSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 7, 31,
                                                        64, 333, 2048),
                         ::testing::PrintToStringParamName());

TEST(Apps, ContractionRankingWithEveryMatcher) {
  const auto list = list::generators::random_list(1500, 77);
  const auto oracle = apps::sequential_ranking(list);
  for (auto alg : {core::Algorithm::kMatch1, core::Algorithm::kMatch2,
                   core::Algorithm::kMatch3, core::Algorithm::kMatch4}) {
    pram::SeqExec exec(16);
    apps::ContractionOptions opt;
    opt.matcher = alg;
    const auto r = apps::contraction_ranking(exec, list, opt);
    EXPECT_EQ(r.rank, oracle) << core::to_string(alg);
  }
}

TEST(Apps, ContractionRoundsAreLogarithmic) {
  // One-of-three ⇒ each round removes >= 1/3 of the pointers, so rounds
  // <= log_{3/2}(n) + O(1).
  for (std::size_t n : {64u, 1024u, 16384u}) {
    const auto list = list::generators::random_list(n, 13);
    pram::SeqExec exec(64);
    const auto r = apps::contraction_ranking(exec, list);
    const double bound = std::log2(static_cast<double>(n)) /
                             std::log2(1.5) +
                         2;
    EXPECT_LE(r.rounds, static_cast<int>(bound)) << "n=" << n;
  }
}

// Rounds and counted cost of contraction ranking at fixed (n, seed),
// as the separate ranking skeleton counted them before it became a
// reduction over the shared contraction kernel. time_p is for SeqExec(16)
// and ParallelExec(64); depth and work do not depend on p.
struct RankingCostPin {
  std::size_t n;
  std::uint64_t seed;
  int rounds;
  std::uint64_t depth, time_p_seq16, time_p_par64, work;
};
constexpr RankingCostPin kRankingCost[] = {
    {1, 1, 0, 2, 2, 2, 2},
    {2, 3, 1, 24, 33, 33, 53},
    {7, 5, 3, 86, 125, 125, 352},
    {1000, 7, 12, 410, 3924, 1298, 56975},
    {4097, 11, 15, 524, 15030, 4176, 233448},
    {65536, 1, 20, 724, 234018, 58975, 3736437},
};

TEST(Apps, ContractionRankingCountedCostIsPinned) {
  pram::ThreadPool pool(2);
  for (const RankingCostPin& pin : kRankingCost) {
    const auto list = list::generators::random_list(pin.n, pin.seed);
    const auto oracle = apps::sequential_ranking(list);
    pram::SeqExec seq(16);
    pram::ParallelExec par(64, pool, /*threshold=*/256);
    const apps::RankingResult runs[] = {apps::contraction_ranking(seq, list),
                                        apps::contraction_ranking(par, list)};
    const std::uint64_t time_p[] = {pin.time_p_seq16, pin.time_p_par64};
    for (int e = 0; e < 2; ++e) {
      const apps::RankingResult& r = runs[e];
      const std::string what =
          std::string(e == 0 ? "seq" : "par") + " n=" + std::to_string(pin.n);
      EXPECT_EQ(r.rank, oracle) << what;
      EXPECT_EQ(r.rounds, pin.rounds) << what;
      EXPECT_EQ(r.cost.depth, pin.depth) << what;
      EXPECT_EQ(r.cost.time_p, time_p[e]) << what;
      EXPECT_EQ(r.cost.work, pin.work) << what;
    }
  }
}

TEST(Apps, WyllieWorkIsNLogN) {
  const std::size_t n = 4096;
  const auto list = list::generators::random_list(n, 5);
  pram::SeqExec exec(64);
  const auto r = apps::wyllie_ranking(exec, list);
  // depth = 1 + ceil(log2 n) steps; work ~ n per step.
  EXPECT_EQ(r.rounds, 12);
  EXPECT_GE(r.cost.work, static_cast<std::uint64_t>(n) * 12);
}

TEST(Apps, ColoringUsesAtMostGnRounds) {
  for (std::size_t n : {10u, 100u, 100000u}) {
    const auto list = list::generators::random_list(n, 2);
    pram::SeqExec exec(16);
    const auto r = apps::three_coloring(exec, list);
    // reduce_to_constant runs until the bound hits 6: within G(n)+3.
    EXPECT_LE(r.reduce_rounds, itlog::G(n) + 3) << n;
  }
}

}  // namespace
}  // namespace llmp
