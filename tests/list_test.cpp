// Tests for the array-backed linked list (Fig. 1) and the workload
// generators.
#include "list/linked_list.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "list/generators.h"
#include "list/ruler_walk.h"
#include "stabilize/audit.h"
#include "support/check.h"

namespace llmp::list {
namespace {

void expect_valid_chain(const LinkedList& list) {
  std::set<index_t> seen;
  std::size_t steps = 0;
  for (index_t v = list.head(); v != knil; v = list.next(v)) {
    EXPECT_TRUE(seen.insert(v).second);
    ASSERT_LE(++steps, list.size());
  }
  EXPECT_EQ(seen.size(), list.size());
  EXPECT_EQ(list.next(list.tail()), knil);
}

TEST(LinkedList, IdentityBasics) {
  const auto l = LinkedList::identity(5);
  EXPECT_EQ(l.size(), 5u);
  EXPECT_EQ(l.pointers(), 4u);
  EXPECT_EQ(l.head(), 0u);
  EXPECT_EQ(l.tail(), 4u);
  EXPECT_EQ(l.next(2), 3u);
  EXPECT_EQ(l.circular_next(4), 0u);
  expect_valid_chain(l);
}

TEST(LinkedList, SingletonList) {
  const auto l = LinkedList::identity(1);
  EXPECT_EQ(l.head(), l.tail());
  EXPECT_EQ(l.pointers(), 0u);
  EXPECT_FALSE(l.has_pointer(0));
  EXPECT_EQ(l.circular_next(0), 0u);
}

TEST(LinkedList, PredecessorsInvertNext) {
  const auto l = generators::random_list(100, 8);
  const auto pred = l.predecessors();
  EXPECT_EQ(pred[l.head()], knil);
  for (index_t v = 0; v < 100; ++v)
    if (l.next(v) != knil) EXPECT_EQ(pred[l.next(v)], v);
}

TEST(LinkedList, RejectsMalformedInputs) {
  using V = std::vector<index_t>;
  EXPECT_THROW(LinkedList(V{}), check_error);                 // empty
  EXPECT_THROW(LinkedList(V{0}), check_error);                // self-cycle
  EXPECT_THROW(LinkedList(V{1, 0}), check_error);             // 2-cycle
  EXPECT_THROW(LinkedList(V{knil, knil}), check_error);       // two tails
  EXPECT_THROW(LinkedList(V{5, knil}), check_error);          // out of range
  EXPECT_THROW(LinkedList(V{2, 2, knil}), check_error);       // two preds
  // Chain + disjoint cycle: 0→1 tail, 2→3→2 cycle.
  EXPECT_THROW(LinkedList(V{1, knil, 3, 2}), check_error);
}

/// The integrity auditor's reading of a successor array: its report's
/// verdict and, for a clean array, the ends found the long way (the tail
/// is the one knil successor, the head the one node with no predecessor).
struct AuditorReading {
  bool clean = false;
  index_t head = knil;
  index_t tail = knil;
};

AuditorReading read_by_auditor(const std::vector<index_t>& next) {
  AuditorReading r;
  r.clean = stabilize::audit_structure(next).clean();
  if (!r.clean) return r;
  std::vector<bool> has_pred(next.size(), false);
  for (index_t v = 0; v < next.size(); ++v) {
    if (next[v] == knil) {
      r.tail = v;
    } else {
      has_pred[next[v]] = true;
    }
  }
  for (index_t v = 0; v < next.size(); ++v)
    if (!has_pred[v]) r.head = v;
  return r;
}

std::string show(const std::vector<index_t>& next) {
  std::string s = "{";
  for (const index_t x : next)
    s += (x == knil ? std::string("nil") : std::to_string(x)) + " ";
  return s + "}";
}

TEST(LinkedList, OneWalkVerdictMatchesTheAuditorExhaustively) {
  // Every successor array with n <= 6 and entries in {0..n, knil}: each
  // in range, one past it, or nil.
  std::size_t chains = 0;
  for (std::size_t n = 0; n <= 6; ++n) {
    const std::size_t digits = n + 2;
    std::size_t arrays = 1;
    for (std::size_t i = 0; i < n; ++i) arrays *= digits;
    std::vector<index_t> next(n);
    for (std::size_t code = 0; code < arrays; ++code) {
      std::size_t c = code;
      for (std::size_t i = 0; i < n; ++i, c /= digits)
        next[i] = c % digits <= n ? static_cast<index_t>(c % digits) : knil;
      const AuditorReading want = read_by_auditor(next);
      const Result<LinkedList> got = LinkedList::make(next);
      ASSERT_EQ(got.ok(), want.clean) << show(next);
      ASSERT_EQ(LinkedList::validate(next).ok(), want.clean) << show(next);
      if (got.ok()) {
        ++chains;
        ASSERT_EQ(got->head(), want.head) << show(next);
        ASSERT_EQ(got->tail(), want.tail) << show(next);
      } else {
        ASSERT_EQ(got.status().message(),
                  "invalid successor array — " +
                      stabilize::audit_structure(next).summary())
            << show(next);
      }
    }
  }
  EXPECT_EQ(chains, 1u + 2 + 6 + 24 + 120 + 720);  // n! chains of n nodes
}

TEST(LinkedList, OneWalkVerdictLeavesEndsAloneOnRejection) {
  index_t head = 7, tail = 9;
  std::uint64_t seed = 11;
  for (const std::vector<index_t>& bad :
       {std::vector<index_t>{}, {1, 0}, {knil, knil}, {2, knil},
        {1, knil, 3, 2}}) {
    EXPECT_FALSE(chain_is_clean(bad, head, tail, seed)) << show(bad);
    EXPECT_EQ(head, 7u);
    EXPECT_EQ(tail, 9u);
    EXPECT_EQ(seed, 11u);
  }
  const std::vector<index_t> chain{2, knil, 1};
  EXPECT_TRUE(chain_is_clean(chain, head, tail, seed));
  EXPECT_EQ(head, 0u);
  EXPECT_EQ(tail, 1u);
  EXPECT_EQ(seed, digest(chain).seed);
  EXPECT_EQ(seed, LinkedList(chain).seed());
}

class GeneratorSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorSizes, AllGeneratorsProduceValidChains) {
  const std::size_t n = GetParam();
  expect_valid_chain(generators::random_list(n, 1));
  expect_valid_chain(generators::identity_list(n));
  expect_valid_chain(generators::reverse_list(n));
  expect_valid_chain(generators::blocked_list(n, 8, 2));
  if (n > 1) {
    std::size_t stride = 3;
    while (std::gcd(stride, n) != 1) ++stride;
    expect_valid_chain(generators::strided_list(n, stride));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSizes,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 10, 100,
                                                        1023),
                         ::testing::PrintToStringParamName());

TEST(Generators, RandomListIsDeterministicPerSeed) {
  const auto a = generators::random_list(500, 7);
  const auto b = generators::random_list(500, 7);
  const auto c = generators::random_list(500, 8);
  EXPECT_EQ(a.next_array(), b.next_array());
  EXPECT_NE(a.next_array(), c.next_array());
}

TEST(Generators, IdentityAndReverseAreExtremes) {
  const auto fwd = generators::identity_list(10);
  const auto rev = generators::reverse_list(10);
  for (index_t v = 0; v + 1 < 10; ++v) EXPECT_EQ(fwd.next(v), v + 1);
  EXPECT_EQ(rev.head(), 9u);
  EXPECT_EQ(rev.tail(), 0u);
  for (index_t v = 9; v > 0; --v) EXPECT_EQ(rev.next(v), v - 1);
}

TEST(Generators, StridedRequiresCoprimality) {
  EXPECT_THROW(generators::strided_list(10, 5), check_error);
  expect_valid_chain(generators::strided_list(10, 3));
}

TEST(Generators, BlockedListKeepsBlockLocality) {
  const std::size_t n = 64, block = 8;
  const auto l = generators::blocked_list(n, block, 3);
  // Walking the list visits blocks in order: node ids within one block of
  // `block` consecutive positions, then the next block.
  index_t v = l.head();
  for (std::size_t b = 0; b < n / block; ++b)
    for (std::size_t i = 0; i < block; ++i) {
      ASSERT_EQ(v / block, b);
      v = l.next(v);
    }
  EXPECT_EQ(v, knil);
}

}  // namespace
}  // namespace llmp::list
