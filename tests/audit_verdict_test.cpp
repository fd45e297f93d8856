// The matching auditor's fast verdict (stabilize/audit.cpp) against the
// throwing oracles of core/verify.cpp, which share no code with it:
// exhaustively over every small list and mark vector, on every registry
// matcher's output and its damaged forms around powers of two, and off
// the valid-chain precondition, where it must still read in bounds (run
// under ASan+UBSan in CI). Also pins core::verify::status, the one-call
// check, to matching_status followed by maximal_status.
//
// This binary instruments global operator new (like serve_test.cpp): the
// report builder allocates and the fast verdict does not, so counting
// allocations shows which of the two decided each case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/run.h"
#include "core/sequential.h"
#include "core/verify.h"
#include "list/generators.h"
#include "list/linked_list.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "stabilize/audit.h"
#include "stabilize/inject.h"
#include "support/alloc_counter.h"
#include "support/check.h"
#include "support/rng.h"

void* operator new(std::size_t size) {
  llmp::support::note_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  llmp::support::note_alloc();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace llmp {
namespace {

using Marks = std::vector<std::uint8_t>;

/// The referee: both throwing oracles accept.
bool oracle(const list::LinkedList& lst, const Marks& marks) {
  try {
    core::verify::check_matching(lst, marks);
    core::verify::check_maximal(lst, marks);
    return true;
  } catch (const check_error&) {
    return false;
  }
}

/// audit_matching's verdict, and whether it allocated on the way. Only
/// the report builder allocates, so `built_report` says whether the fast
/// verdict left the case to it: it must iff the bitmap is not clean.
struct Audited {
  bool clean = false;
  bool built_report = false;
};

Audited audit(const list::LinkedList& lst, const Marks& marks) {
  const std::uint64_t before = support::scoped_allocs();
  Audited a;
  {
    support::AllocScope scope;
    a.clean = stabilize::audit_matching(lst.next_array(), marks).clean();
  }
  a.built_report = support::scoped_allocs() != before;
  return a;
}

/// The two-call form core::verify::status replaces.
Status two_calls(const list::LinkedList& lst, const Marks& marks) {
  Status s = core::verify::matching_status(lst, marks);
  return s.ok() ? core::verify::maximal_status(lst, marks) : s;
}

/// The list visiting nodes in `order`.
list::LinkedList chain_in(const std::vector<index_t>& order) {
  std::vector<index_t> links(order.size(), knil);
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    links[order[i]] = order[i + 1];
  return list::LinkedList(std::move(links));
}

/// Calls fn(list, marks, along) for every list order of n nodes and every
/// mark vector, with `chosen` as the value of a set mark; bit i of
/// `along` is set iff the i-th node in chain order is marked.
template <class Fn>
void for_each_small_case(std::size_t n, std::uint8_t chosen, Fn&& fn) {
  std::vector<index_t> order(n);
  std::iota(order.begin(), order.end(), index_t{0});
  Marks marks(n);
  do {
    const list::LinkedList lst = chain_in(order);
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::uint32_t along = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool set = ((bits >> order[i]) & 1u) != 0;
        marks[order[i]] = set ? chosen : 0;
        along |= static_cast<std::uint32_t>(set) << i;
      }
      fn(lst, marks, along);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

std::string describe(const list::LinkedList& lst, const Marks& marks) {
  std::ostringstream os;
  os << "links";
  for (index_t v : lst.next_array()) {
    if (v == knil) {
      os << " -";
    } else {
      os << ' ' << v;
    }
  }
  os << " marks";
  for (std::uint8_t m : marks) os << ' ' << static_cast<int>(m);
  return os.str();
}

/// The oracles' verdict for each chain-order mark string of n nodes. They
/// walk the chain, so a case's verdict depends only on that string; one
/// call per string (on the identity order) stands for every list order.
std::vector<bool> oracle_by_string(std::size_t n) {
  std::vector<index_t> identity(n);
  std::iota(identity.begin(), identity.end(), index_t{0});
  const list::LinkedList lst = chain_in(identity);
  std::vector<bool> verdict(std::size_t{1} << n);
  Marks marks(n);
  for (std::uint32_t along = 0; along < verdict.size(); ++along) {
    for (std::size_t i = 0; i < n; ++i) marks[i] = (along >> i) & 1u;
    verdict[along] = oracle(lst, marks);
  }
  return verdict;
}

TEST(AuditVerdict, AgreesWithTheOraclesOnEverySmallCase) {
  std::size_t cases = 0;
  for (std::size_t n = 1; n <= 7; ++n) {
    const std::vector<bool> verdict = oracle_by_string(n);
    for (const std::uint8_t chosen : {1, 2, 255}) {
      for_each_small_case(
          n, chosen,
          [&](const list::LinkedList& lst, const Marks& m,
              std::uint32_t along) {
            const Audited a = audit(lst, m);
            ASSERT_EQ(a.clean, verdict[along]) << describe(lst, m);
            ASSERT_EQ(a.built_report, !a.clean) << describe(lst, m);
            ++cases;
          });
    }
  }
  // sum over n = 1..7 of n! * 2^n, times three chosen values.
  EXPECT_EQ(cases, 2086446u);
}

// The string-indexed verdict above, checked against the oracles run on
// each case itself wherever that is cheap.
TEST(AuditVerdict, OracleVerdictDependsOnlyOnTheChainOrderString) {
  for (std::size_t n = 1; n <= 5; ++n) {
    const std::vector<bool> verdict = oracle_by_string(n);
    for_each_small_case(n, 1,
                        [&](const list::LinkedList& lst, const Marks& m,
                            std::uint32_t along) {
                          ASSERT_EQ(oracle(lst, m), verdict[along])
                              << describe(lst, m);
                        });
  }
}

std::vector<list::LinkedList> shapes_of(std::size_t n) {
  std::size_t stride = n / 3 + 1;
  while (std::gcd(stride, n) != 1) ++stride;
  std::vector<list::LinkedList> shapes;
  shapes.push_back(list::generators::random_list(n, 5 + n));
  shapes.push_back(list::generators::identity_list(n));
  shapes.push_back(list::generators::reverse_list(n));
  shapes.push_back(list::generators::strided_list(n, stride));
  shapes.push_back(list::generators::blocked_list(n, 16, 9 + n));
  return shapes;
}

/// Nodes whose mark is worth flipping: both ends of the chain, their
/// neighbours, and a seeded sample of the rest.
std::vector<index_t> flip_sites(const list::LinkedList& lst,
                                std::uint64_t seed) {
  std::vector<index_t> sites = {lst.head(), lst.next(lst.head()),
                                lst.predecessors()[lst.tail()], lst.tail()};
  rng::Xoshiro256 gen(seed);
  for (int k = 0; k < 12; ++k)
    sites.push_back(static_cast<index_t>(gen.below(lst.size())));
  sites.erase(std::remove(sites.begin(), sites.end(), knil), sites.end());
  return sites;
}

// Every registry matcher's output on every shape: clean by both, then
// break_matching damage and single-bit flips judged the same by both.
TEST(AuditVerdict, AgreesOnEveryMatcherOutputAndItsDamage) {
  std::size_t matchers = 0;
  for (const core::AlgorithmEntry* e :
       core::AlgorithmRegistry::instance().entries()) {
    if (!e->matching) continue;
    ++matchers;
    for (const std::size_t n : {1u, 2u, 3u, 1023u, 1024u, 1025u, 65536u}) {
      for (const list::LinkedList& lst : shapes_of(n)) {
        pram::SeqExec seq(1024);
        pram::Context ctx(seq);
        core::MatchResult r;
        ASSERT_TRUE(core::run_matching_into(ctx, lst, e->canonical, r).ok());
        const std::string where = e->name + " n=" + std::to_string(n);
        ASSERT_TRUE(oracle(lst, r.in_matching)) << where;
        const Audited out = audit(lst, r.in_matching);
        ASSERT_TRUE(out.clean) << where;
        ASSERT_FALSE(out.built_report) << where;
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
          Marks damaged = r.in_matching;
          if (stabilize::break_matching(lst.next_array(), damaged, seed,
                                        1 + seed % 3) == 0)
            continue;  // nothing chosen to break (n == 1)
          ASSERT_FALSE(oracle(lst, damaged)) << where << " seed " << seed;
          ASSERT_FALSE(audit(lst, damaged).clean) << where << " seed "
                                                  << seed;
        }
        for (const index_t v : flip_sites(lst, n)) {
          Marks flipped = r.in_matching;
          flipped[v] ^= 1;
          const Audited a = audit(lst, flipped);
          ASSERT_EQ(a.clean, oracle(lst, flipped)) << where << " flip " << v;
          ASSERT_EQ(a.built_report, !a.clean) << where << " flip " << v;
        }
      }
    }
  }
  EXPECT_GE(matchers, 6u);  // sequential, match1..4, randomized at least
}

// Off the valid-chain precondition the verdict is unspecified, but every
// gather is range-tested first: damaged and arbitrary successor arrays
// must be read in bounds (ASan turns a stray read into a failure).
TEST(AuditVerdict, BrokenChainsAreReadInBounds) {
  for (const std::size_t n : {1u, 2u, 3u, 17u, 1024u, 1025u}) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      const list::LinkedList lst = list::generators::random_list(n, seed);
      const Marks matched = core::sequential_matching(lst).in_matching;
      std::vector<index_t> flipped = lst.next_array();
      stabilize::flip_links(flipped, seed, 1 + seed % 3);
      std::vector<index_t> cut = lst.next_array();
      stabilize::truncate_links(cut, seed, 1 + seed % 3);
      std::vector<index_t> wild(n);
      rng::Xoshiro256 gen(seed);
      for (index_t& s : wild)
        s = gen.coin() ? knil : static_cast<index_t>(gen.below(n + 8));
      for (const std::vector<index_t>* links : {&flipped, &cut, &wild}) {
        for (const Marks& marks :
             {matched, Marks(n, 0), Marks(n, 1), Marks(n, 255)}) {
          EXPECT_EQ(stabilize::audit_matching(*links, marks).n, n);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// core::verify::status: the same Status as the two calls it replaces.
// ---------------------------------------------------------------------------

void expect_same_status(const list::LinkedList& lst, const Marks& marks) {
  const Status one = core::verify::status(lst, marks);
  const Status two = two_calls(lst, marks);
  EXPECT_EQ(one.code(), two.code()) << describe(lst, marks);
  EXPECT_EQ(one.message(), two.message()) << describe(lst, marks);
}

TEST(OneCallStatus, MatchesTwoCallsOnEverySmallCase) {
  for (std::size_t n = 1; n <= 6; ++n) {
    for (const std::uint8_t chosen : {1, 255}) {
      for_each_small_case(
          n, chosen,
          [](const list::LinkedList& lst, const Marks& m, std::uint32_t) {
            expect_same_status(lst, m);
          });
    }
  }
}

TEST(OneCallStatus, MatchesTwoCallsOnNamedDamage) {
  const list::LinkedList lst = list::generators::random_list(257, 12);
  const Marks good = core::sequential_matching(lst).in_matching;
  expect_same_status(lst, good);
  EXPECT_TRUE(core::verify::status(lst, good).ok());

  // Overlap: mark the head of a chosen pointer as well.
  Marks overlap = good;
  for (index_t v = lst.head(); lst.has_pointer(v); v = lst.next(v)) {
    if (good[v] != 0 && lst.has_pointer(lst.next(v))) {
      overlap[lst.next(v)] = 1;
      break;
    }
  }
  // A mark on the tail; the tail mark plus a hole elsewhere (both kinds).
  Marks tail = good;
  tail[lst.tail()] = 1;
  Marks tail_and_hole = tail;
  for (index_t v = lst.head(); lst.has_pointer(v); v = lst.next(v)) {
    if (tail_and_hole[v] != 0) {
      tail_and_hole[v] = 0;
      break;
    }
  }
  Marks empty(lst.size(), 0);
  for (const Marks* m : {&overlap, &tail, &tail_and_hole, &empty}) {
    expect_same_status(lst, *m);
    EXPECT_EQ(core::verify::status(lst, *m).code(),
              StatusCode::kFailedVerification);
  }
  // Validity findings outrank maximality ones, as in the two-call order.
  EXPECT_EQ(core::verify::status(lst, tail_and_hole).message(),
            core::verify::matching_status(lst, tail_and_hole).message());
  EXPECT_EQ(core::verify::status(lst, empty).message(),
            core::verify::maximal_status(lst, empty).message());

  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Marks broken = good;
    ASSERT_GE(stabilize::break_matching(lst.next_array(), broken, seed,
                                        1 + seed % 5),
              1u);
    expect_same_status(lst, broken);
    EXPECT_FALSE(core::verify::status(lst, broken).ok()) << seed;
  }
}

TEST(OneCallStatus, CleanAnswerAllocatesNothing) {
  const list::LinkedList lst = list::generators::random_list(4096, 3);
  const Marks marks = core::sequential_matching(lst).in_matching;
  const std::uint64_t before = support::scoped_allocs();
  {
    support::AllocScope scope;
    EXPECT_TRUE(core::verify::status(lst, marks).ok());
  }
  EXPECT_EQ(support::scoped_allocs(), before);
}

TEST(OneCallStatus, WrongSizedBitmapIsAStatusNotAThrow) {
  const list::LinkedList lst = list::generators::random_list(64, 1);
  const Marks short_marks(lst.size() - 1, 0);
  Status s;
  ASSERT_NO_THROW(s = core::verify::status(lst, short_marks));
  EXPECT_EQ(s.code(), StatusCode::kFailedVerification);
  expect_same_status(lst, short_marks);
}

}  // namespace
}  // namespace llmp
