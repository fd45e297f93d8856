// End-to-end correctness of every matching algorithm: validity, maximality
// and the one-of-three witness over a grid of list shapes, sizes and
// processor budgets, on both fast executors — the repository's main
// property-test sweep.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/maximal_matching.h"
#include "core/verify.h"
#include "list/generators.h"
#include "pram/executor.h"

namespace llmp {
namespace {

using core::Algorithm;
using list::LinkedList;

enum class Shape { kRandom, kIdentity, kReverse, kStrided, kBlocked };

LinkedList make_list(Shape shape, std::size_t n, std::uint64_t seed) {
  switch (shape) {
    case Shape::kRandom: return list::generators::random_list(n, seed);
    case Shape::kIdentity: return list::generators::identity_list(n);
    case Shape::kReverse: return list::generators::reverse_list(n);
    case Shape::kStrided: {
      std::size_t stride = 7;
      while (std::gcd(stride, n) != 1) ++stride;
      return list::generators::strided_list(n, stride);
    }
    case Shape::kBlocked:
      return list::generators::blocked_list(n, 32, seed);
  }
  return list::generators::random_list(n, seed);
}

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kRandom: return "Random";
    case Shape::kIdentity: return "Identity";
    case Shape::kReverse: return "Reverse";
    case Shape::kStrided: return "Strided";
    case Shape::kBlocked: return "Blocked";
  }
  return "?";
}

const char* alg_name(Algorithm a) {
  switch (a) {
    case Algorithm::kSequential: return "Sequential";
    case Algorithm::kMatch1: return "Match1";
    case Algorithm::kMatch2: return "Match2";
    case Algorithm::kMatch3: return "Match3";
    case Algorithm::kMatch4: return "Match4";
    case Algorithm::kRandomized: return "Randomized";
  }
  return "?";
}

using Param = std::tuple<Algorithm, Shape, std::size_t>;

class MatchingSweep : public ::testing::TestWithParam<Param> {};

TEST_P(MatchingSweep, MaximalMatchingHolds) {
  const auto [alg, shape, n] = GetParam();
  const LinkedList list = make_list(shape, n, /*seed=*/n * 31 + 7);
  pram::SeqExec exec(/*processors=*/16);
  core::MatchOptions opt;
  opt.algorithm = alg;
  const core::MatchResult r = core::maximal_matching(exec, list, opt);
  ASSERT_EQ(r.in_matching.size(), n);
  core::verify::check_matching(list, r.in_matching);
  core::verify::check_maximal(list, r.in_matching);
  EXPECT_EQ(r.edges, core::verify::matching_size(r.in_matching));
  // Any maximal matching on a path covers at least ceil((n-1)/3) pointers
  // and at most floor((n-1+1)/2).
  if (n > 1) {
    EXPECT_GE(3 * r.edges + 2, list.pointers());
    EXPECT_LE(2 * r.edges, n);
  }
}

TEST_P(MatchingSweep, OneOfThreeForDeterministicCutAlgorithms) {
  const auto [alg, shape, n] = GetParam();
  if (alg != Algorithm::kMatch1 && alg != Algorithm::kMatch3 &&
      alg != Algorithm::kMatch4 && alg != Algorithm::kSequential)
    GTEST_SKIP() << "one-of-three is promised only by the cut-based path";
  const LinkedList list = make_list(shape, n, n * 131 + 5);
  pram::SeqExec exec(8);
  core::MatchOptions opt;
  opt.algorithm = alg;
  const auto r = core::maximal_matching(exec, list, opt);
  core::verify::check_one_of_three(list, r.in_matching);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MatchingSweep,
    ::testing::Combine(
        ::testing::Values(Algorithm::kSequential, Algorithm::kMatch1,
                          Algorithm::kMatch2, Algorithm::kMatch3,
                          Algorithm::kMatch4, Algorithm::kRandomized),
        ::testing::Values(Shape::kRandom, Shape::kIdentity, Shape::kReverse,
                          Shape::kStrided, Shape::kBlocked),
        ::testing::Values<std::size_t>(1, 2, 3, 5, 17, 64, 257, 4096)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(alg_name(std::get<0>(info.param))) + "_" +
             shape_name(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<2>(info.param));
    });

TEST(MatchingExecutors, ParallelExecAgreesWithSeqExec) {
  pram::ThreadPool pool(3);
  for (std::size_t n : {129u, 2048u}) {
    const auto list = list::generators::random_list(n, 42);
    for (auto alg : {Algorithm::kMatch1, Algorithm::kMatch2,
                     Algorithm::kMatch3, Algorithm::kMatch4}) {
      pram::SeqExec seq(32);
      // Threshold 1: every step with a processor runs on the pool.
      pram::ParallelExec par(32, pool, /*threshold=*/1);
      core::MatchOptions opt;
      opt.algorithm = alg;
      const auto a = core::maximal_matching(seq, list, opt);
      const auto b = core::maximal_matching(par, list, opt);
      // Deterministic algorithms: identical matchings and identical cost
      // accounting regardless of the execution backend.
      EXPECT_EQ(a.in_matching, b.in_matching) << alg_name(alg) << " n=" << n;
      EXPECT_EQ(a.cost.depth, b.cost.depth) << alg_name(alg);
      EXPECT_EQ(a.cost.time_p, b.cost.time_p) << alg_name(alg);
      EXPECT_EQ(a.cost.work, b.cost.work) << alg_name(alg);
    }
  }
}

TEST(MatchingAlgorithms, EdgeCountsAgreeLooselyAcrossAlgorithms) {
  // All maximal matchings on the same list are within a factor 2 in size.
  const auto list = list::generators::random_list(5000, 9);
  pram::SeqExec exec(16);
  std::vector<std::size_t> sizes;
  for (auto alg : {Algorithm::kSequential, Algorithm::kMatch1,
                   Algorithm::kMatch2, Algorithm::kMatch3, Algorithm::kMatch4,
                   Algorithm::kRandomized}) {
    core::MatchOptions opt;
    opt.algorithm = alg;
    sizes.push_back(core::maximal_matching(exec, list, opt).edges);
  }
  for (std::size_t s : sizes) {
    EXPECT_LE(sizes.front(), 2 * s);
    EXPECT_LE(s, 2 * sizes.front());
  }
}

TEST(MatchingAlgorithms, SequentialIsMaximumOnPath) {
  // Greedy from the head yields ceil((n-1)/2) edges on a path.
  for (std::size_t n : {2u, 3u, 10u, 11u, 1001u}) {
    const auto list = list::generators::identity_list(n);
    const auto r = core::sequential_matching(list);
    EXPECT_EQ(r.edges, n / 2) << n;
  }
}

}  // namespace
}  // namespace llmp
