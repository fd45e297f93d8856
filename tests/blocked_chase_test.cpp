// The block engine's ruler chase (src/engine/blocked_match.h) against
// natural and hostile list orders, at two geometries: the repo
// benchmark's (2^15 nodes, 512-node blocks, 8 frames) and the engine's
// default (2^17 nodes, 4096-node blocks, 4 frames). On every shape the
// chase must give the flat path's matching and ranks, pin blocks at most
// twice as often as on a random list, and walk no segment longer than 16
// windows. The hostile shapes are the orders a ruler rule fixed in
// advance falls to: every multiple of 2^t first, and every ruler of the
// chase's own rule under a fixed seed first. Either puts almost the whole
// list in one segment if the rulers sit where the order expects them.
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/list_ranking.h"
#include "core/sequential.h"
#include "engine/blocked_match.h"
#include "list/generators.h"
#include "list/linked_list.h"
#include "support/rng.h"

namespace llmp {
namespace {

struct Geometry {
  const char* name;
  std::size_t n;
  std::size_t block_nodes;
  std::size_t frames;
};

constexpr Geometry kGeometries[] = {{"benchmark", 1u << 15, 512, 8},
                                    {"default", 1u << 17, 4096, 4}};

/// Prints a geometry by name. Without it gtest prints the raw bytes,
/// whose `name` pointer moves with every load address, so the listed
/// test names would differ from one run of the binary to the next.
void PrintTo(const Geometry& g, std::ostream* os) { *os << g.name; }

engine::BlockConfig config_of(const Geometry& g) {
  engine::BlockConfig cfg;
  cfg.block_nodes = g.block_nodes;
  cfg.cache_blocks = g.frames;
  return cfg;
}

/// The window shift the chase picks at the default watermark.
unsigned shift_of(const Geometry& g) {
  return list::Rulers::shift_for(g.n, 4 * g.block_nodes);
}

/// The list that visits `order` front to back.
list::LinkedList visiting(const std::vector<index_t>& order) {
  std::vector<index_t> next(order.size(), knil);
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    next[order[i]] = order[i + 1];
  return list::LinkedList(std::move(next));
}

/// Every id `first` picks, in id order, then every other id in a seeded
/// random order: if the rulers were exactly the first ids, one token
/// would walk the whole random rest alone, one pin per node.
template <class Pick>
list::LinkedList first_then_rest(std::size_t n, Pick&& first) {
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
  return visiting(order);
}

list::LinkedList multiples_first(std::size_t n, unsigned t) {
  const index_t mask = (index_t{1} << t) - 1;
  return first_then_rest(n, [&](index_t v) { return (v & mask) == 0; });
}

/// Every ruler of the chase's rule under `seed` first: the order a rule
/// that ignored the list's own seed would meet as the worst case.
list::LinkedList rulers_first(std::size_t n, unsigned shift,
                              std::uint64_t seed) {
  const list::Rulers fixed{shift, seed};
  return first_then_rest(
      n, [&](index_t v) { return fixed.ruler(v >> shift) == v; });
}

struct Shape {
  std::string name;
  list::LinkedList list;
};

std::vector<Shape> shapes_for(const Geometry& g) {
  namespace gen = list::generators;
  const unsigned s = shift_of(g);
  std::vector<Shape> shapes;
  shapes.push_back({"identity", gen::identity_list(g.n)});
  shapes.push_back({"reverse", gen::reverse_list(g.n)});
  for (std::size_t stride : {std::size_t{3}, std::size_t{17},
                             (g.n >> s) + 1})
    shapes.push_back({"strided " + std::to_string(stride),
                      gen::strided_list(g.n, stride)});
  shapes.push_back(
      {"blocked", gen::blocked_list(g.n, g.block_nodes, /*seed=*/5)});
  for (unsigned t = 1; t <= s + 2; ++t)
    shapes.push_back({"multiples of 2^" + std::to_string(t) + " first",
                      multiples_first(g.n, t)});
  shapes.push_back({"fixed-seed rulers first", rulers_first(g.n, s, 0)});
  return shapes;
}

struct Counters {
  std::uint64_t pins = 0;
  std::uint64_t posts = 0;
  std::uint64_t longest = 0;
};

/// Chase `src` under `cfg`, check the matching and the ranks against the
/// flat paths, and return the matching run's counters.
Counters chase_exactly(const list::LinkedList& src,
                       const engine::BlockConfig& cfg) {
  engine::BlockedMatcher matcher;
  EXPECT_TRUE(matcher.init(src, cfg).ok());
  matcher.reset_stats();
  core::MatchResult blocked;
  EXPECT_TRUE(matcher.matching_into(blocked).ok());
  const engine::EngineStats st = matcher.stats();

  const core::MatchResult flat = core::sequential_matching(src);
  EXPECT_EQ(blocked.in_matching, flat.in_matching);
  EXPECT_EQ(blocked.edges, flat.edges);
  EXPECT_EQ(blocked.cost.depth, flat.cost.depth);
  EXPECT_EQ(blocked.cost.time_p, flat.cost.time_p);
  EXPECT_EQ(blocked.cost.work, flat.cost.work);
  EXPECT_EQ(blocked.cost.reads, flat.cost.reads);
  EXPECT_EQ(blocked.cost.writes, flat.cost.writes);
  EXPECT_EQ(blocked.phases.size(), flat.phases.size());
  for (std::size_t i = 0;
       i < blocked.phases.size() && i < flat.phases.size(); ++i) {
    EXPECT_EQ(blocked.phases[i].name, flat.phases[i].name);
    EXPECT_EQ(blocked.phases[i].cost.work, flat.phases[i].cost.work);
  }
  std::vector<std::uint64_t> rank;
  EXPECT_TRUE(matcher.ranking_into(rank).ok());
  EXPECT_EQ(rank, apps::sequential_ranking(src));
  return {st.hits + st.misses, st.mailbox_posts, st.longest_segment};
}

class BlockedChase : public ::testing::TestWithParam<Geometry> {};

TEST_P(BlockedChase, EveryShapeIsExactAndCheap) {
  const Geometry g = GetParam();
  const engine::BlockConfig cfg = config_of(g);
  const std::uint64_t width = std::uint64_t{1} << shift_of(g);
  const Counters random =
      chase_exactly(list::generators::random_list(g.n, 1), cfg);
  EXPECT_LE(random.longest, 16 * width);
  for (const Shape& shape : shapes_for(g)) {
    SCOPED_TRACE(shape.name);
    const Counters c = chase_exactly(shape.list, cfg);
    EXPECT_LE(c.pins, 2 * random.pins) << "random pins " << random.pins;
    EXPECT_LE(c.longest, 16 * width) << "window width " << width;
  }
}

TEST_P(BlockedChase, OneFrameStillExact) {
  const Geometry g = GetParam();
  engine::BlockConfig cfg = config_of(g);
  cfg.cache_blocks = 1;
  chase_exactly(list::generators::random_list(g.n, 2), cfg);
  chase_exactly(list::generators::reverse_list(g.n), cfg);
  chase_exactly(rulers_first(g.n, shift_of(g), 0), cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BlockedChase, ::testing::ValuesIn(kGeometries),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::string(info.param.name);
    });

// A watermark that covers the list leaves windows one id wide: every node
// is a ruler, every token stops at once, nothing is posted, and the hash's
// offset (masked to zero bits) is well defined.
TEST(BlockedChaseEdges, EveryNodeIsARulerWhenTheWatermarkCoversTheList) {
  const std::size_t n = 5000;
  for (std::size_t watermark : {n, 4 * n}) {
    engine::BlockConfig cfg;
    cfg.block_nodes = 512;
    cfg.cache_blocks = 2;
    cfg.mailbox_watermark = watermark;
    const auto src = list::generators::random_list(n, 3);
    engine::BlockedMatcher matcher;
    ASSERT_TRUE(matcher.init(src, cfg).ok());
    EXPECT_EQ(matcher.rulers().shift, 0u);
    const Counters c = chase_exactly(src, cfg);
    EXPECT_EQ(c.posts, 0u);
    EXPECT_EQ(c.longest, 1u);
  }
}

// Lengths around one block, with the default watermark (every node a
// ruler at these sizes) and with a watermark of 4 (windows of up to 256
// ids, most of them spanning blocks), through one frame and eight.
TEST(BlockedChaseEdges, ShortListsAroundOneBlock) {
  constexpr std::size_t kBlock = 512;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        kBlock - 1, kBlock + 1}) {
    for (std::size_t watermark : {std::size_t{0}, std::size_t{4}}) {
      for (std::size_t frames : {std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE("n " + std::to_string(n) + " watermark " +
                     std::to_string(watermark) + " frames " +
                     std::to_string(frames));
        engine::BlockConfig cfg;
        cfg.block_nodes = kBlock;
        cfg.cache_blocks = frames;
        cfg.mailbox_watermark = watermark;
        chase_exactly(list::generators::random_list(n, n), cfg);
        chase_exactly(list::generators::reverse_list(n), cfg);
      }
    }
  }
}

/// The first random list of n nodes (by generator seed) for which `want`
/// holds of the matcher initialized on it.
template <class Want>
list::LinkedList first_list_where(std::size_t n,
                                  const engine::BlockConfig& cfg,
                                  Want&& want) {
  for (std::uint64_t seed = 0; seed < 100000; ++seed) {
    list::LinkedList src = list::generators::random_list(n, seed);
    engine::BlockedMatcher matcher;
    EXPECT_TRUE(matcher.init(src, cfg).ok());
    if (want(matcher, src)) return src;
  }
  ADD_FAILURE() << "no list found";
  return list::generators::random_list(n, 0);
}

// The head heads its own segment whether or not it is its window's ruler;
// when it is not, it takes the table's extra entry.
TEST(BlockedChaseEdges, HeadThatIsAndIsNotItsWindowsRuler) {
  engine::BlockConfig cfg;
  cfg.block_nodes = 64;
  cfg.cache_blocks = 64;  // all resident: the search does no IO
  cfg.mailbox_watermark = 64;
  const std::size_t n = 4096;
  for (bool is_ruler : {true, false}) {
    SCOPED_TRACE(is_ruler ? "head is its window's ruler" : "head is not");
    const list::LinkedList src = first_list_where(
        n, cfg, [&](const engine::BlockedMatcher& m,
                    const list::LinkedList& l) {
          const list::Rulers& r = m.rulers();
          return (r.ruler(l.head() >> r.shift) == l.head()) == is_ruler;
        });
    engine::BlockConfig tight = cfg;
    tight.cache_blocks = 4;
    chase_exactly(src, tight);
  }
}

// n = 32 windows of 128 ids plus one: the last window holds a single id,
// and its hashed ruler usually falls past the end, so that window has no
// ruler and its node is reached from the previous segment.
TEST(BlockedChaseEdges, PartialLastWindowWhoseRulerFallsPastTheEnd) {
  engine::BlockConfig cfg;
  cfg.block_nodes = 64;
  cfg.cache_blocks = 65;
  cfg.mailbox_watermark = 64;
  const std::size_t n = 32 * 128 + 1;
  const list::LinkedList src = first_list_where(
      n, cfg,
      [&](const engine::BlockedMatcher& m, const list::LinkedList&) {
        const list::Rulers& r = m.rulers();
        return r.shift == 7 && r.windows(n) == 33 && r.ruler(32) >= n;
      });
  engine::BlockConfig tight = cfg;
  tight.cache_blocks = 4;
  chase_exactly(src, tight);
}

}  // namespace
}  // namespace llmp
