// The ruler-segmented walk (list/ruler_walk.h) against plain single-chain
// walks. Positions come from apps::sequential_prefix over unit weights,
// which walks the chain one node at a time and shares no code with the
// kernel: the greedy marks are the even positions that have a pointer,
// and a rank is n-1 minus the position. The list check's verdict is
// refereed by stabilize::audit_structure on hostile arrays at sizes where
// more than kLanes segments run interleaved, and by a seeded fuzz.
//
// This binary instruments global operator new (like audit_verdict_test)
// to pin that warm walks allocate nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "apps/list_prefix.h"
#include "apps/list_ranking.h"
#include "core/sequential.h"
#include "list/generators.h"
#include "list/linked_list.h"
#include "list/ruler_walk.h"
#include "stabilize/audit.h"
#include "support/alloc_counter.h"
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

using Links = std::vector<index_t>;

/// The spacing exponent the kernel picks: the smallest s >= 1 that leaves
/// at most 1024 multiples of 2^s below n.
unsigned ruler_shift(std::size_t n) {
  unsigned s = 1;
  while (((n - 1) >> s) >= list::RulerWalk::kMaxMultiples) ++s;
  return s;
}

bool is_multiple(index_t v, unsigned shift) {
  return (v & ((index_t{1} << shift) - 1)) == 0;
}

/// The successor array of the chain visiting `order` front to back.
Links chain_of(const std::vector<index_t>& order) {
  Links next(order.size(), knil);
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    next[order[i]] = order[i + 1];
  return next;
}

std::vector<index_t> shuffled_ids(std::size_t n, std::uint64_t seed) {
  std::vector<index_t> order(n);
  std::iota(order.begin(), order.end(), index_t{0});
  rng::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// Every multiple of 2^shift first (ascending), then every other id: one
/// segment per ruler of length one, and one segment holding the rest, so
/// the walk degrades to a single chase.
list::LinkedList rulers_first(std::size_t n) {
  const unsigned s = ruler_shift(n);
  std::vector<index_t> order;
  for (index_t v = 0; v < n; ++v)
    if (is_multiple(v, s)) order.push_back(v);
  for (index_t v = 0; v < n; ++v)
    if (!is_multiple(v, s)) order.push_back(v);
  return list::LinkedList(chain_of(order));
}

/// A random order whose head is `head`.
list::LinkedList random_with_head(std::size_t n, index_t head,
                                  std::uint64_t seed) {
  std::vector<index_t> order = shuffled_ids(n, seed);
  std::swap(*std::find(order.begin(), order.end(), head), order.front());
  return list::LinkedList(chain_of(order));
}

/// position[v]: v's distance from the head, by one plain walk.
std::vector<std::uint64_t> positions(const list::LinkedList& lst) {
  std::vector<std::uint64_t> pos = apps::sequential_prefix<apps::SumMonoid>(
      lst, std::vector<std::uint64_t>(lst.size(), 1));
  for (std::uint64_t& p : pos) --p;
  return pos;
}

void expect_walks_match_plain_walks(const list::LinkedList& lst,
                                    const std::string& what) {
  const std::size_t n = lst.size();
  const std::vector<std::uint64_t> pos = positions(lst);
  std::vector<std::uint8_t> marks(n);
  std::vector<std::uint64_t> rank(n);
  std::size_t edges = 0;
  for (index_t v = 0; v < n; ++v) {
    marks[v] = pos[v] % 2 == 0 && lst.has_pointer(v) ? 1 : 0;
    edges += marks[v];
    rank[v] = n - 1 - pos[v];
  }
  core::MatchResult r;
  r.in_matching.assign(n + 3, 1);  // stale marks from a larger list
  core::sequential_matching_into(lst, r);
  ASSERT_EQ(r.in_matching, marks) << what;
  EXPECT_EQ(r.edges, edges) << what;
  EXPECT_EQ(r.cost.depth, n) << what;
  EXPECT_EQ(r.cost.time_p, n) << what;
  EXPECT_EQ(r.cost.work, n) << what;
  EXPECT_EQ(r.cost.reads, 0u) << what;
  EXPECT_EQ(r.cost.writes, 0u) << what;
  ASSERT_EQ(r.phases.size(), 1u) << what;
  EXPECT_EQ(r.phases[0].name, "walk") << what;
  EXPECT_EQ(r.phases[0].cost.work, n) << what;
  EXPECT_EQ(r.phases[0].cost.depth, n) << what;
  EXPECT_EQ(apps::sequential_ranking(lst), rank) << what;
}

const std::size_t kSizes[] = {1,    2,    3,     7,     8,     9,
                              2047, 2048, 2049,  4095,  4096,  4097,
                              8191, 8193, 65535, 65536, 65537, 100003};

TEST(RulerWalk, MatchesPlainWalksOnEveryShape) {
  for (const std::size_t n : kSizes) {
    const std::string at = " n=" + std::to_string(n);
    expect_walks_match_plain_walks(list::generators::random_list(n, 5),
                                   "random" + at);
    expect_walks_match_plain_walks(list::generators::identity_list(n),
                                   "identity" + at);
    expect_walks_match_plain_walks(list::generators::reverse_list(n),
                                   "reverse" + at);
    expect_walks_match_plain_walks(list::generators::blocked_list(n, 8, 2),
                                   "blocked" + at);
    if (n > 1) {
      std::size_t stride = 3;
      while (std::gcd(stride, n) != 1) ++stride;
      expect_walks_match_plain_walks(list::generators::strided_list(n, stride),
                                     "strided" + at);
    }
  }
}

TEST(RulerWalk, MatchesPlainWalksWhenOneSegmentHoldsTheList) {
  for (const std::size_t n : kSizes)
    expect_walks_match_plain_walks(rulers_first(n),
                                   "rulers first n=" + std::to_string(n));
}

TEST(RulerWalk, MatchesPlainWalksWhetherOrNotTheHeadIsARuler) {
  for (const std::size_t n : kSizes) {
    const std::string at = " n=" + std::to_string(n);
    // 0 is always a ruler; with shift >= 1 an odd id never is.
    expect_walks_match_plain_walks(random_with_head(n, 0, n), "head 0" + at);
    if (n > 1) {
      const index_t odd = static_cast<index_t>(n % 2 == 0 ? n - 1 : n - 2);
      expect_walks_match_plain_walks(random_with_head(n, odd, n),
                                     "odd head" + at);
    }
  }
}

TEST(RulerWalk, WarmWalksAllocateNothing) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{6},
                              std::size_t{4097}, std::size_t{65536}}) {
    const list::LinkedList lst = list::generators::random_list(n, 9);
    core::MatchResult r;
    core::sequential_matching_into(lst, r);  // sizes the buffers
    const std::uint64_t before = support::scoped_allocs();
    {
      support::AllocScope scope;
      core::sequential_matching_into(lst, r);
      EXPECT_TRUE(list::LinkedList::validate(lst.next_array()).ok());
    }
    EXPECT_EQ(support::scoped_allocs(), before) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// The list check on hostile arrays.
// ---------------------------------------------------------------------------

/// The auditor's reading of an array: clean or not, and for a clean one
/// the ends found the long way.
void expect_verdict_matches_auditor(const Links& next,
                                    const std::string& what) {
  const stabilize::CorruptionReport report = stabilize::audit_structure(next);
  const Result<list::LinkedList> got = list::LinkedList::make(next);
  ASSERT_EQ(got.ok(), report.clean()) << what;
  ASSERT_EQ(list::LinkedList::validate(next).ok(), report.clean()) << what;
  index_t head = 7, tail = 9;
  ASSERT_EQ(list::chain_is_clean(next, head, tail), report.clean()) << what;
  if (!report.clean()) {
    EXPECT_EQ(head, 7u) << what;
    EXPECT_EQ(tail, 9u) << what;
    EXPECT_EQ(got.status().message(),
              "invalid successor array — " + report.summary())
        << what;
    return;
  }
  std::vector<bool> has_pred(next.size(), false);
  index_t want_tail = knil;
  for (index_t v = 0; v < next.size(); ++v) {
    if (next[v] == knil) {
      want_tail = v;
    } else {
      has_pred[next[v]] = true;
    }
  }
  const auto want_head = static_cast<index_t>(
      std::find(has_pred.begin(), has_pred.end(), false) - has_pred.begin());
  EXPECT_EQ(head, want_head) << what;
  EXPECT_EQ(tail, want_tail) << what;
  EXPECT_EQ(got->head(), want_head) << what;
  EXPECT_EQ(got->tail(), want_tail) << what;
}

/// A valid chain to damage, with its order, whose head is not a ruler
/// (so the head's own segment is the last one the walk starts).
struct Victim {
  std::vector<index_t> order;
  Links next;
};

Victim victim(std::size_t n, std::uint64_t seed) {
  Victim v;
  v.order = shuffled_ids(n, seed);
  const auto odd = static_cast<index_t>(n % 2 == 0 ? n - 1 : n - 2);
  std::swap(*std::find(v.order.begin(), v.order.end(), odd), v.order.front());
  v.next = chain_of(v.order);
  return v;
}

/// Positions in `order` of three consecutive non-rulers, past the head.
std::size_t non_ruler_run(const std::vector<index_t>& order, unsigned shift) {
  for (std::size_t i = 1; i + 3 < order.size(); ++i) {
    if (!is_multiple(order[i], shift) && !is_multiple(order[i + 1], shift) &&
        !is_multiple(order[i + 2], shift))
      return i;
  }
  ADD_FAILURE() << "no run of three non-rulers";
  return 1;
}

const std::size_t kHostileSizes[] = {1000, 4097, 65536};

TEST(ChainVerdict, ValidChainsAreAccepted) {
  for (const std::size_t n : kHostileSizes)
    expect_verdict_matches_auditor(victim(n, n).next,
                                   "valid n=" + std::to_string(n));
}

TEST(ChainVerdict, CycleAvoidingEveryRulerIsRejected) {
  for (const std::size_t n : kHostileSizes) {
    Victim v = victim(n, n + 1);
    const std::size_t i = non_ruler_run(v.order, ruler_shift(n));
    // order[i] -> order[i+1] -> order[i+2] -> order[i]: the walk that
    // enters the loop meets no ruler, so only the visit cap ends it.
    v.next[v.order[i + 2]] = v.order[i];
    expect_verdict_matches_auditor(v.next,
                                   "ruler-free cycle n=" + std::to_string(n));
  }
}

TEST(ChainVerdict, TwoSegmentsMergingIntoOneAreRejected) {
  for (const std::size_t n : kHostileSizes) {
    Victim v = victim(n, n + 2);
    const unsigned s = ruler_shift(n);
    // Two nodes a third and two thirds down the list, in different
    // segments, now share the first one's successor.
    const index_t a = v.order[n / 3];
    const index_t b = v.order[2 * n / 3];
    ASSERT_FALSE(is_multiple(v.next[a], s) && v.next[a] == v.order[2 * n / 3]);
    v.next[b] = v.next[a];
    expect_verdict_matches_auditor(v.next,
                                   "merging segments n=" + std::to_string(n));
  }
}

TEST(ChainVerdict, PointerBackIntoTheHeadIsRejected) {
  for (const std::size_t n : kHostileSizes) {
    Victim v = victim(n, n + 3);
    Links tail_to_head = v.next;
    tail_to_head[v.order.back()] = v.order.front();
    expect_verdict_matches_auditor(tail_to_head,
                                   "tail to head n=" + std::to_string(n));
    Links middle_to_head = v.next;
    middle_to_head[v.order[n / 2]] = v.order.front();
    expect_verdict_matches_auditor(middle_to_head,
                                   "middle to head n=" + std::to_string(n));
  }
}

TEST(ChainVerdict, SecondNilIsRejected) {
  for (const std::size_t n : kHostileSizes) {
    Victim v = victim(n, n + 4);
    v.next[v.order[n / 2]] = knil;
    expect_verdict_matches_auditor(v.next,
                                   "second nil n=" + std::to_string(n));
  }
}

TEST(ChainVerdict, OutOfRangeSuccessorInTheLastSegmentIsRejected) {
  for (const std::size_t n : kHostileSizes) {
    const auto mask = static_cast<index_t>((index_t{1} << ruler_shift(n)) - 1);
    // One past the end, and far out with the low bits of a ruler.
    for (const index_t bad : {static_cast<index_t>(n), knil - mask}) {
      const std::string at = " bad=" + std::to_string(bad) +
                             " n=" + std::to_string(n);
      // Plain damage: the candidate head moves with the XOR.
      Victim v = victim(n, n + 5);
      v.next[v.order[1]] = bad;
      expect_verdict_matches_auditor(v.next, "second node" + at);
      // Compensated damage: the tail's nil absorbs the XOR difference, so
      // the candidate stays the real head and only the walk can reject.
      // The head is not a ruler, so its segment is the last one started.
      Victim w = victim(n, n + 6);
      const index_t head = w.order.front();
      w.next[w.order.back()] ^= w.next[head] ^ bad;
      w.next[head] = bad;
      expect_verdict_matches_auditor(w.next, "head, compensated" + at);
    }
  }
}

TEST(ChainVerdict, SelfLoopIsRejected) {
  for (const std::size_t n : kHostileSizes) {
    Victim v = victim(n, n + 7);
    const index_t x = v.order[n / 2];
    v.next[x] = x;
    expect_verdict_matches_auditor(v.next, "self-loop n=" + std::to_string(n));
    Victim w = victim(n, n + 8);
    w.next[0] = 0;  // a ruler
    expect_verdict_matches_auditor(w.next,
                                   "ruler self-loop n=" + std::to_string(n));
  }
}

TEST(ChainVerdict, FuzzedRewritesAndSwapsMatchTheAuditor) {
  rng::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + rng.below(trial % 10 == 0 ? 5000 : 300);
    Links next = chain_of(shuffled_ids(n, rng.next()));
    const std::uint64_t kind = rng.below(3);
    const auto i = static_cast<index_t>(rng.below(n));
    if (kind == 0) {
      // One cell rewritten: in range, one past it, nil, or far out.
      const std::uint64_t pick = rng.below(n + 3);
      next[i] = pick < n    ? static_cast<index_t>(pick)
                : pick == n ? static_cast<index_t>(n)
                : pick == n + 1 ? knil
                                : static_cast<index_t>(rng.below(knil));
    } else if (kind == 1) {
      std::swap(next[i], next[rng.below(n)]);
    }
    expect_verdict_matches_auditor(next, "fuzz trial " +
                                             std::to_string(trial));
  }
}

}  // namespace
}  // namespace llmp
