// The ruler-segmented walk (list/ruler_walk.h) against plain single-chain
// walks. Positions come from apps::sequential_prefix over unit weights,
// which walks the chain one node at a time and shares no code with the
// kernel: the greedy marks are the even positions that have a pointer,
// and a rank is n-1 minus the position. The orders a ruler rule fixed in
// advance falls to (blocked_chase_test's shapes) must keep every segment
// short under the list's own seed. The list check's verdict is refereed
// by stabilize::audit_structure on hostile arrays at sizes where more
// than kLanes segments run interleaved, and by a seeded fuzz. Where a
// case needs rulers at given places, it either walks under an explicit
// seed or searches for damage whose own digest puts them there.
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

/// The window shift the in-core walk picks for n ids.
unsigned ruler_shift(std::size_t n) {
  return list::RulerWalk::rulers_for(n, 0).shift;
}

/// The rulers the walk cuts an array of n ids at under `seed`.
list::Rulers rulers_of(std::size_t n, std::uint64_t seed) {
  return list::RulerWalk::rulers_for(n, seed);
}

/// Whether v is its window's ruler under `r`.
bool is_ruler(const list::Rulers& r, index_t v) {
  return r.ruler(v >> r.shift) == v;
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

/// Every id `first` picks, in id order, then every other id in a seeded
/// random order.
template <class Pick>
std::vector<index_t> first_then_rest(std::size_t n, Pick&& first) {
  std::vector<index_t> order;
  order.reserve(n);
  for (index_t v = 0; v < n; ++v)
    if (first(v)) order.push_back(v);
  const std::size_t lead = order.size();
  for (index_t v = 0; v < n; ++v)
    if (!first(v)) order.push_back(v);
  rng::Xoshiro256 gen(/*seed=*/9);
  for (std::size_t i = n - 1; i > lead; --i)
    std::swap(order[i], order[lead + gen.below(i - lead + 1)]);
  return order;
}

/// Every ruler of the walk's rule under `seed` first, then every other
/// id: a walk under that seed has one segment of length one per ruler
/// but the last, whose segment holds the whole rest.
std::vector<index_t> rulers_first(std::size_t n, std::uint64_t seed) {
  const list::Rulers r = rulers_of(n, seed);
  return first_then_rest(n, [&](index_t v) { return is_ruler(r, v); });
}

/// position[v]: v's distance from the head, by one plain walk.
std::vector<std::uint64_t> positions(const list::LinkedList& lst) {
  std::vector<std::uint64_t> pos = apps::sequential_prefix<apps::SumMonoid>(
      lst, std::vector<std::uint64_t>(lst.size(), 1));
  for (std::uint64_t& p : pos) --p;
  return pos;
}

/// Marks, edges, cost, ranks, head and tail against the plain walk's
/// positions `pos`.
void expect_walks_match_plain_walks(const list::LinkedList& lst,
                                    const std::string& what,
                                    const std::vector<std::uint64_t>& pos) {
  const std::size_t n = lst.size();
  std::vector<std::uint8_t> marks(n);
  std::vector<std::uint64_t> rank(n);
  std::size_t edges = 0;
  for (index_t v = 0; v < n; ++v) {
    marks[v] = pos[v] % 2 == 0 && lst.has_pointer(v) ? 1 : 0;
    edges += marks[v];
    rank[v] = n - 1 - pos[v];
  }
  EXPECT_EQ(pos[lst.head()], 0u) << what;
  EXPECT_EQ(pos[lst.tail()], n - 1) << what;
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

void expect_walks_match_plain_walks(const list::LinkedList& lst,
                                    const std::string& what) {
  expect_walks_match_plain_walks(lst, what, positions(lst));
}

/// Walk `lst` under an explicit `seed`, check every node's position
/// (segment offset plus distance from the ruler) against the plain
/// walk's `pos`, and return the walk's longest segment.
index_t walk_under_seed(const list::LinkedList& lst, std::uint64_t seed,
                        const std::vector<std::uint64_t>& pos,
                        const std::string& what) {
  const std::size_t n = lst.size();
  std::vector<std::uint64_t> at(n);  // (segment, distance) per node
  list::RulerWalk walk(n, lst.head(), seed);
  EXPECT_TRUE(walk.walk(
                  lst.next_array().data(), [](index_t) { return true; },
                  [&at](index_t v, index_t, index_t seg, index_t j) {
                    at[v] = std::uint64_t{seg} << 32 | j;
                  }) &&
              walk.order())
      << what;
  index_t longest = 0;
  std::size_t misplaced = 0;
  for (index_t v = 0; v < n; ++v) {
    const list::Segment& seg = walk.segment(static_cast<index_t>(at[v] >> 32));
    misplaced += seg.offset + (at[v] & 0xFFFFFFFFu) != pos[v];
    longest = std::max(longest, seg.length);
  }
  EXPECT_EQ(misplaced, 0u) << what;
  return longest;
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
  // Under its own seed the list meets the rulers at random; walked under
  // the seed it was laid out against, one lane chases the whole rest.
  constexpr std::uint64_t kLaidOutAgainst = 0;
  for (const std::size_t n : kSizes) {
    const std::string at = " n=" + std::to_string(n);
    const list::LinkedList lst(chain_of(rulers_first(n, kLaidOutAgainst)));
    const std::vector<std::uint64_t> pos = positions(lst);
    expect_walks_match_plain_walks(lst, "rulers first" + at, pos);
    const list::Rulers r = rulers_of(n, kLaidOutAgainst);
    std::size_t rulers = 0;
    for (std::size_t w = 0; w < r.windows(n); ++w) rulers += r.ruler(w) < n;
    EXPECT_EQ(walk_under_seed(lst, kLaidOutAgainst, pos, "rulers first" + at),
              n - rulers + 1)
        << at;
  }
}

/// A random list of n nodes whose head is (want true) or is not its
/// window's ruler under the list's own seed: the first head, by id, of
/// the first shuffled order for which that holds.
list::LinkedList head_ruler_or_not(std::size_t n, bool want) {
  for (std::uint64_t seed = n; seed < n + 64; ++seed) {
    std::vector<index_t> order = shuffled_ids(n, seed);
    for (index_t head = 0; head < n; ++head) {
      std::swap(*std::find(order.begin(), order.end(), head), order.front());
      Links next = chain_of(order);
      const list::Rulers r = rulers_of(n, list::digest(next).seed);
      if (is_ruler(r, head) == want) return list::LinkedList(std::move(next));
    }
  }
  ADD_FAILURE() << "no head found, n=" << n << " want=" << want;
  return list::LinkedList::identity(n);
}

TEST(RulerWalk, MatchesPlainWalksWhetherOrNotTheHeadIsARuler) {
  for (const std::size_t n : kSizes) {
    const std::string at = " n=" + std::to_string(n);
    expect_walks_match_plain_walks(head_ruler_or_not(n, true),
                                   "head a ruler" + at);
    // Windows one id wide (n <= 2) make every id a ruler.
    if (ruler_shift(n) > 0)
      expect_walks_match_plain_walks(head_ruler_or_not(n, false),
                                     "head not a ruler" + at);
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
  std::uint64_t seed = 11;
  ASSERT_EQ(list::chain_is_clean(next, head, tail, seed), report.clean())
      << what;
  if (!report.clean()) {
    EXPECT_EQ(head, 7u) << what;
    EXPECT_EQ(tail, 9u) << what;
    EXPECT_EQ(seed, 11u) << what;
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
  EXPECT_EQ(seed, list::digest(next).seed) << what;
  EXPECT_EQ(got->seed(), seed) << what;
}

/// A valid chain to damage, with its order.
struct Victim {
  std::vector<index_t> order;
  Links next;
};

Victim victim(std::size_t n, std::uint64_t seed) {
  Victim v;
  v.order = shuffled_ids(n, seed);
  v.next = chain_of(v.order);
  return v;
}

/// Where the list check's walk over `next` stops, cut where the array's
/// own digest puts the rulers (its candidate head must be in range).
enum class Stop { kWalk, kOrder, kAccepted };

Stop stop_of(const Links& next) {
  const list::Digest d = list::digest(next);
  list::RulerWalk walk(next.size(), d.head, d.seed);
  if (!walk.walk(
          next.data(), [](index_t) { return true; },
          [](index_t, index_t, index_t, index_t) {}))
    return Stop::kWalk;
  return walk.order() ? Stop::kAccepted : Stop::kOrder;
}

const std::size_t kHostileSizes[] = {1000, 4097, 65536};

TEST(ChainVerdict, ValidChainsAreAccepted) {
  for (const std::size_t n : kHostileSizes)
    expect_verdict_matches_auditor(victim(n, n).next,
                                   "valid n=" + std::to_string(n));
}

TEST(ChainVerdict, CycleAvoidingEveryRulerIsRejected) {
  for (const std::size_t n : kHostileSizes) {
    const Victim v = victim(n, n + 1);
    // order[i] -> order[i+1] -> order[i+2] -> order[i], with a segment
    // start ahead of the loop and none in it, under the damaged array's
    // own digest: the lane that enters the loop meets no ruler, so only
    // the visit cap ends the walk.
    bool found = false;
    for (std::size_t i = n / 2; i + 3 < n && !found; ++i) {
      Links next = v.next;
      next[v.order[i + 2]] = v.order[i];
      const list::Digest d = list::digest(next);
      const list::Rulers r = rulers_of(n, d.seed);
      const auto starts = [&](index_t x) {
        return x == d.head || is_ruler(r, x);
      };
      if (d.head >= n || starts(v.order[i]) || starts(v.order[i + 1]) ||
          starts(v.order[i + 2]) ||
          std::none_of(v.order.begin(), v.order.begin() + i, starts))
        continue;
      found = true;
      EXPECT_EQ(stop_of(next), Stop::kWalk);
      expect_verdict_matches_auditor(next,
                                     "ruler-free cycle n=" + std::to_string(n));
    }
    EXPECT_TRUE(found) << "n=" << n;
  }
}

TEST(ChainVerdict, TwoSegmentsMergingIntoOneAreRejected) {
  for (const std::size_t n : kHostileSizes) {
    // Two nodes a third and two thirds down the list now share the first
    // one's successor c. Where the damaged array's own digest makes c a
    // ruler, the segments ending at a and at b both run into c's: the
    // walk visits no node twice and completes, and only the order of the
    // segments can reject.
    bool found = false;
    for (std::uint64_t seed = n + 2; seed < n + 66 && !found; ++seed) {
      const Victim v = victim(n, seed);
      for (std::size_t k = 0; k < n / 3 && !found; ++k) {
        Links next = v.next;
        const index_t c = next[v.order[n / 3 + k]];
        next[v.order[2 * n / 3 + k]] = c;
        const list::Digest d = list::digest(next);
        if (d.head >= n || !is_ruler(rulers_of(n, d.seed), c)) continue;
        found = true;
        EXPECT_EQ(stop_of(next), Stop::kOrder);
        expect_verdict_matches_auditor(
            next, "merging segments n=" + std::to_string(n));
      }
    }
    EXPECT_TRUE(found) << "n=" << n;
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
    // One past the end, and so far out that its window index lies far
    // past the walk's table.
    for (const index_t bad : {static_cast<index_t>(n), knil - mask}) {
      const std::string at = " bad=" + std::to_string(bad) +
                             " n=" + std::to_string(n);
      // Plain damage: the candidate head moves with the XOR.
      Victim v = victim(n, n + 5);
      v.next[v.order[1]] = bad;
      expect_verdict_matches_auditor(v.next, "second node" + at);
      // Compensated damage: the tail's nil absorbs the XOR difference, so
      // the candidate stays the real head and only the walk can reject.
      // Where the head is not its window's ruler under the damaged
      // array's own digest, its segment is the last one started.
      bool found = false;
      for (std::uint64_t seed = n + 6; seed < n + 70 && !found; ++seed) {
        Victim w = victim(n, seed);
        const index_t head = w.order.front();
        w.next[w.order.back()] ^= w.next[head] ^ bad;
        w.next[head] = bad;
        const list::Digest d = list::digest(w.next);
        ASSERT_EQ(d.head, head) << at;
        if (is_ruler(rulers_of(n, d.seed), head)) continue;
        found = true;
        EXPECT_EQ(stop_of(w.next), Stop::kWalk) << at;
        expect_verdict_matches_auditor(w.next, "head, compensated" + at);
      }
      EXPECT_TRUE(found) << at;
    }
  }
}

TEST(ChainVerdict, SelfLoopIsRejected) {
  for (const std::size_t n : kHostileSizes) {
    Victim v = victim(n, n + 7);
    const index_t x = v.order[n / 2];
    v.next[x] = x;
    expect_verdict_matches_auditor(v.next, "self-loop n=" + std::to_string(n));
    // A ruler pointing at itself: the first node, by id, that the damaged
    // array's own digest makes a ruler.
    const Victim w = victim(n, n + 8);
    bool found = false;
    for (index_t y = 0; y < n && !found; ++y) {
      Links next = w.next;
      next[y] = y;
      if (!is_ruler(rulers_of(n, list::digest(next).seed), y)) continue;
      found = true;
      expect_verdict_matches_auditor(next,
                                     "ruler self-loop n=" + std::to_string(n));
    }
    EXPECT_TRUE(found) << "n=" << n;
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

// ---------------------------------------------------------------------------
// The orders a ruler rule fixed in advance falls to.
// ---------------------------------------------------------------------------

struct Shape {
  std::string name;
  list::LinkedList list;
  std::vector<std::uint64_t> pos;  ///< each node's distance from the head
};

/// The shape visiting `order`, whose positions are that order's.
Shape laid_out(std::string name, const std::vector<index_t>& order) {
  std::vector<std::uint64_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  return {std::move(name), list::LinkedList(chain_of(order)), std::move(pos)};
}

/// A generated shape, whose positions come from one plain walk.
Shape generated(std::string name, list::LinkedList lst) {
  std::vector<std::uint64_t> pos = positions(lst);
  return {std::move(name), std::move(lst), std::move(pos)};
}

/// blocked_chase_test's shapes for the in-core walk's window shift s:
/// each "first" shape is followed by a seeded random rest.
std::vector<Shape> hostile_shapes(std::size_t n) {
  namespace gen = list::generators;
  const unsigned s = ruler_shift(n);
  std::vector<Shape> shapes;
  for (unsigned t = 1; t <= s + 2; ++t) {
    const index_t mask = (index_t{1} << t) - 1;
    shapes.push_back(
        laid_out("multiples of 2^" + std::to_string(t) + " first",
                 first_then_rest(n, [&](index_t v) { return (v & mask) == 0; })));
  }
  shapes.push_back(laid_out("fixed-seed rulers first", rulers_first(n, 0)));
  for (const std::size_t stride :
       {std::size_t{3}, std::size_t{17}, (std::size_t{1} << s) + 1})
    shapes.push_back(generated("strided " + std::to_string(stride),
                               gen::strided_list(n, stride)));
  shapes.push_back(generated("blocked", gen::blocked_list(n, 512, /*seed=*/5)));
  return shapes;
}

class RulerWalkShapes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RulerWalkShapes, HostileOrdersMatchPlainWalksInShortSegments) {
  const std::size_t n = GetParam();
  const std::size_t width = std::size_t{1} << ruler_shift(n);
  for (const Shape& shape : hostile_shapes(n)) {
    const std::string what = shape.name + " n=" + std::to_string(n);
    const std::vector<std::uint64_t>& pos = shape.pos;
    expect_walks_match_plain_walks(shape.list, what, pos);
    // The list check's verdict and ends (the ones the list was built
    // with, checked against pos above) on the bare array.
    index_t head = knil, tail = knil;
    std::uint64_t seed = 0;
    EXPECT_TRUE(list::chain_is_clean(shape.list.next_array(), head, tail, seed))
        << what;
    EXPECT_EQ(head, shape.list.head()) << what;
    EXPECT_EQ(tail, shape.list.tail()) << what;
    EXPECT_EQ(seed, shape.list.seed()) << what;
    EXPECT_LE(walk_under_seed(shape.list, seed, pos, what), 16 * width)
        << what << " window width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RulerWalkShapes,
                         ::testing::Values(std::size_t{1} << 15,
                                           std::size_t{1} << 20),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "n" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace llmp
