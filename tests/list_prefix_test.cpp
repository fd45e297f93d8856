// Tests for generic parallel list prefix, including a non-commutative
// monoid that catches any ordering mistake in the contraction/expansion.
#include "apps/list_prefix.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "apps/list_ranking.h"
#include "list/generators.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/thread_pool.h"
#include "support/rng.h"

namespace llmp::apps {
namespace {

class PrefixSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefixSizes, SumMatchesOracle) {
  const std::size_t n = GetParam();
  const auto lst = list::generators::random_list(n, 5 * n + 1);
  rng::Xoshiro256 gen(n);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = gen.below(1000);
  pram::SeqExec exec(64);
  const auto r = list_prefix<SumMonoid>(exec, lst, values);
  EXPECT_EQ(r.prefix, sequential_prefix<SumMonoid>(lst, values));
}

TEST_P(PrefixSizes, MaxMatchesOracle) {
  const std::size_t n = GetParam();
  const auto lst = list::generators::reverse_list(n);
  rng::Xoshiro256 gen(n + 1);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = gen.next();
  pram::SeqExec exec(64);
  const auto r = list_prefix<MaxMonoid>(exec, lst, values);
  EXPECT_EQ(r.prefix, sequential_prefix<MaxMonoid>(lst, values));
}

TEST_P(PrefixSizes, NonCommutativeAffineMatchesOracle) {
  // Affine composition is order-sensitive: any segment-order bug in the
  // contraction or expansion flips a coefficient.
  const std::size_t n = GetParam();
  const auto lst = list::generators::random_list(n, 9 * n + 2);
  rng::Xoshiro256 gen(n + 2);
  std::vector<AffineMonoid::Affine> values(n);
  for (auto& v : values) v = {gen.next() | 1, gen.next()};
  pram::SeqExec exec(64);
  const auto r = list_prefix<AffineMonoid>(exec, lst, values);
  const auto oracle = sequential_prefix<AffineMonoid>(lst, values);
  ASSERT_EQ(r.prefix.size(), oracle.size());
  for (std::size_t v = 0; v < n; ++v)
    ASSERT_TRUE(r.prefix[v] == oracle[v]) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixSizes,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 33,
                                                        100, 1000, 8192),
                         ::testing::PrintToStringParamName());

TEST(ListPrefix, RankingIsPrefixOfUnitWeights) {
  const std::size_t n = 2000;
  const auto lst = list::generators::random_list(n, 4);
  std::vector<std::uint64_t> ones(n, 1);
  pram::SeqExec exec(64);
  const auto r = list_prefix<SumMonoid>(exec, lst, ones);
  // inclusive prefix of 1s = position + 1; rank (distance to tail) =
  // n - prefix.
  const auto ranks = sequential_ranking(lst);
  for (index_t v = 0; v < n; ++v)
    EXPECT_EQ(n - r.prefix[v], ranks[v]);
}

TEST(ListPrefix, EveryMatcherWorks) {
  const std::size_t n = 700;
  const auto lst = list::generators::random_list(n, 6);
  rng::Xoshiro256 gen(12);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = gen.below(50);
  const auto oracle = sequential_prefix<SumMonoid>(lst, values);
  for (auto alg : {core::Algorithm::kMatch1, core::Algorithm::kMatch2,
                   core::Algorithm::kMatch3, core::Algorithm::kMatch4}) {
    pram::SeqExec exec(32);
    ContractionOptions opt;
    opt.matcher = alg;
    EXPECT_EQ((list_prefix<SumMonoid>(exec, lst, values, opt).prefix),
              oracle)
        << core::to_string(alg);
  }
}

TEST(ListPrefix, CrewLegalOnTheMachine) {
  const std::size_t n = 300;
  const auto lst = list::generators::random_list(n, 8);
  std::vector<std::uint64_t> values(n, 2);
  pram::Machine m(pram::Mode::kCREW, 8);
  const auto r = list_prefix<SumMonoid>(m, lst, values);
  EXPECT_EQ(r.prefix, sequential_prefix<SumMonoid>(lst, values));
}

// Rounds and counted cost of list prefix at fixed (n, seed), as the
// separate prefix skeleton counted them before ranking and prefix shared
// one contraction kernel. The monoid does not enter the cost. time_p is
// for SeqExec(16) and ParallelExec(64); depth and work do not depend on p.
struct PrefixCostPin {
  std::size_t n;
  std::uint64_t seed;
  int rounds;
  std::uint64_t depth, time_p_seq16, time_p_par64, work;
};
constexpr PrefixCostPin kPrefixCost[] = {
    {1, 1, 0, 1, 1, 1, 1},
    {2, 3, 1, 23, 32, 32, 51},
    {7, 5, 3, 85, 124, 124, 345},
    {1000, 7, 12, 409, 3861, 1282, 55975},
    {4097, 11, 15, 523, 14773, 4111, 229351},
    {65536, 1, 20, 723, 229922, 57951, 3670901},
};

template <class Monoid, class Exec>
void expect_pinned_prefix(
    Exec& exec, const list::LinkedList& lst,
    const std::vector<typename Monoid::value_type>& values,
    const PrefixCostPin& pin, std::uint64_t time_p, const std::string& what) {
  const auto r = list_prefix<Monoid>(exec, lst, values);
  EXPECT_TRUE(r.prefix == sequential_prefix<Monoid>(lst, values)) << what;
  EXPECT_EQ(r.rounds, pin.rounds) << what;
  EXPECT_EQ(r.cost.depth, pin.depth) << what;
  EXPECT_EQ(r.cost.time_p, time_p) << what;
  EXPECT_EQ(r.cost.work, pin.work) << what;
}

TEST(ListPrefix, CountedCostIsPinnedForEveryMonoid) {
  pram::ThreadPool pool(2);
  for (const PrefixCostPin& pin : kPrefixCost) {
    const auto lst = list::generators::random_list(pin.n, pin.seed);
    rng::Xoshiro256 gen(pin.seed);
    std::vector<std::uint64_t> sums(pin.n), maxes(pin.n);
    std::vector<AffineMonoid::Affine> maps(pin.n);
    for (auto& v : sums) v = gen.below(1000);
    for (auto& v : maxes) v = gen.next();
    for (auto& v : maps) v = {gen.next() | 1, gen.next()};
    pram::SeqExec seq(16);
    pram::ParallelExec par(64, pool, /*threshold=*/256);
    const std::string n = " n=" + std::to_string(pin.n);
    expect_pinned_prefix<SumMonoid>(seq, lst, sums, pin, pin.time_p_seq16,
                                    "seq sum" + n);
    expect_pinned_prefix<SumMonoid>(par, lst, sums, pin, pin.time_p_par64,
                                    "par sum" + n);
    expect_pinned_prefix<MaxMonoid>(seq, lst, maxes, pin, pin.time_p_seq16,
                                    "seq max" + n);
    expect_pinned_prefix<MaxMonoid>(par, lst, maxes, pin, pin.time_p_par64,
                                    "par max" + n);
    expect_pinned_prefix<AffineMonoid>(seq, lst, maps, pin,
                                       pin.time_p_seq16, "seq affine" + n);
    expect_pinned_prefix<AffineMonoid>(par, lst, maps, pin,
                                       pin.time_p_par64, "par affine" + n);
  }
}

TEST(ListPrefix, WorkIsLinearInN) {
  // O(log n) rounds over geometrically shrinking lists: total work c·n.
  std::uint64_t per_n_small = 0, per_n_large = 0;
  for (std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 16}) {
    const auto lst = list::generators::random_list(n, 3);
    std::vector<std::uint64_t> values(n, 1);
    pram::SeqExec exec(64);
    const auto r = list_prefix<SumMonoid>(exec, lst, values);
    (n == (std::size_t{1} << 12) ? per_n_small : per_n_large) =
        r.cost.work / n;
  }
  // Flat per-element work within 40% across a 16x size change.
  EXPECT_LT(per_n_large, per_n_small + 2 * per_n_small / 5);
}

}  // namespace
}  // namespace llmp::apps
