// Tests for the out-of-core block engine (src/engine): the IO driver's
// file round trip, the BlockStore's cache/evict/spill mechanics, the
// scheduler's pending-work policy, the BlockedList build round trip, and
// the headline property — BlockedMatcher produces the same MatchResult
// and ranking as the flat in-memory paths on lists far larger than the
// cache budget, with zero steady-state allocations on warm reruns.
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "apps/list_ranking.h"
#include "core/sequential.h"
#include "engine/block.h"
#include "engine/block_store.h"
#include "engine/blocked_list.h"
#include "engine/blocked_match.h"
#include "engine/io_driver.h"
#include "engine/scheduler.h"
#include "list/generators.h"
#include "list/linked_list.h"
#include "support/failpoint.h"

// ---- Counting global allocator (same idiom as context_test.cpp). ----------

namespace {
std::uint64_t g_news = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_news;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  ++g_news;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace llmp {
namespace {

engine::BlockConfig small_config(std::size_t block_nodes = 16,
                                 std::size_t cache_blocks = 2) {
  engine::BlockConfig cfg;
  cfg.block_nodes = block_nodes;
  cfg.cache_blocks = cache_blocks;
  return cfg;
}

// ---- IoDriver. ------------------------------------------------------------

TEST(IoDriver, RoundTripsBlocks) {
  engine::IoDriver d;
  ASSERT_TRUE(d.open(sizeof(std::uint64_t) * 4, "").ok());
  const std::uint64_t a[4] = {1, 2, 3, 4};
  const std::uint64_t b[4] = {5, 6, 7, 8};
  ASSERT_TRUE(d.write_block(3, a).ok());
  ASSERT_TRUE(d.write_block(0, b).ok());
  std::uint64_t out[4] = {};
  ASSERT_TRUE(d.read_block(3, out).ok());
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[3], 4u);
  ASSERT_TRUE(d.read_block(0, out).ok());
  EXPECT_EQ(out[0], 5u);
}

TEST(IoDriver, ReadOfUnwrittenBlockFails) {
  engine::IoDriver d;
  ASSERT_TRUE(d.open(64, "").ok());
  char buf[64];
  const Status s = d.read_block(9, buf);
  EXPECT_FALSE(s.ok());
}

TEST(IoDriver, BadSpillDirSurfacesStatus) {
  engine::IoDriver d;
  const Status s = d.open(64, "/nonexistent-llmp-dir/x");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

// ---- CacheScheduler. ------------------------------------------------------

TEST(CacheScheduler, NextBlockIsMostPending) {
  engine::CacheScheduler sched;
  sched.init(4);
  EXPECT_EQ(sched.next_block(), engine::CacheScheduler::kNone);
  sched.note_post(1);
  sched.note_post(3);
  sched.note_post(3);
  EXPECT_EQ(sched.next_block(), 3u);
  sched.note_drain(3);
  EXPECT_EQ(sched.next_block(), 1u);
}

TEST(CacheScheduler, VictimIsLeastPendingThenLru) {
  engine::CacheScheduler sched;
  sched.init(4);
  sched.touch(0);
  sched.touch(1);
  sched.touch(2);
  sched.note_post(0);
  // 1 and 2 both have no pending work; 1 was used longer ago.
  EXPECT_EQ(sched.pick_victim({0, 1, 2}), 1u);
  sched.touch(1);
  EXPECT_EQ(sched.pick_victim({0, 1, 2}), 2u);
}

// ---- BlockStore. ----------------------------------------------------------

TEST(BlockStore, SpillsAndReloadsThroughTheCache) {
  engine::CacheScheduler sched;
  sched.init(4);
  engine::BlockStore<std::uint32_t> store;
  engine::BlockConfig cfg = small_config(8, 2);
  ASSERT_TRUE(store.init(32, cfg, &sched).ok());
  EXPECT_EQ(store.blocks(), 4u);
  // Write a distinct value into every block, forcing evictions.
  for (std::size_t b = 0; b < 4; ++b) {
    std::uint32_t* f = nullptr;
    ASSERT_TRUE(store.pin(b, &f).ok());
    for (std::size_t i = 0; i < 8; ++i) f[i] = static_cast<std::uint32_t>(b);
    store.mark_dirty(b);
  }
  EXPECT_GE(store.stats().evictions, 2u);
  EXPECT_GT(store.stats().spill_bytes, 0u);
  // Read everything back.
  for (std::size_t b = 0; b < 4; ++b) {
    std::uint32_t* f = nullptr;
    ASSERT_TRUE(store.pin(b, &f).ok());
    for (std::size_t i = 0; i < 8; ++i)
      ASSERT_EQ(f[i], static_cast<std::uint32_t>(b)) << "block " << b;
  }
}

TEST(BlockStore, CleanEvictionNeverSpills) {
  engine::CacheScheduler sched;
  sched.init(4);
  engine::BlockStore<std::uint32_t> store;
  ASSERT_TRUE(store.init(32, small_config(8, 2), &sched, 7).ok());
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t b = 0; b < 4; ++b) {
      std::uint32_t* f = nullptr;
      ASSERT_TRUE(store.pin(b, &f).ok());
      for (std::size_t i = 0; i < 8; ++i) ASSERT_EQ(f[i], 7u);
    }
  }
  EXPECT_EQ(store.stats().spills, 0u);
  EXPECT_EQ(store.stats().spill_bytes, 0u);
  EXPECT_GE(store.stats().evictions, 2u);
}

TEST(BlockStore, HitsWhenResident) {
  engine::CacheScheduler sched;
  sched.init(2);
  engine::BlockStore<std::uint32_t> store;
  ASSERT_TRUE(store.init(16, small_config(8, 2), &sched).ok());
  std::uint32_t* f = nullptr;
  ASSERT_TRUE(store.pin(0, &f).ok());
  ASSERT_TRUE(store.pin(0, &f).ok());
  ASSERT_TRUE(store.pin(0, &f).ok());
  EXPECT_EQ(store.stats().hits, 2u);
  EXPECT_EQ(store.stats().misses, 1u);
}

// ---- BlockedList. ---------------------------------------------------------

TEST(BlockedList, RoundTripsSuccessorArray) {
  const auto src = list::generators::random_list(1000, 42);
  engine::BlockedList bl;
  ASSERT_TRUE(bl.init(src, small_config(64, 3)).ok());
  EXPECT_EQ(bl.size(), 1000u);
  EXPECT_EQ(bl.head(), src.head());
  EXPECT_EQ(bl.tail(), src.tail());
  std::vector<index_t> flat;
  ASSERT_TRUE(bl.to_flat(flat).ok());
  EXPECT_EQ(flat, src.next_array());
}

// ---- BlockedMatcher: correctness vs the flat paths. -----------------------

class BlockedMatchShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(BlockedMatchShapes, MatchesFlatSequentialExactly) {
  const auto [n, shape] = GetParam();
  list::LinkedList src = [&] {
    switch (shape) {
      case 0: return list::generators::identity_list(n);
      case 1: return list::generators::reverse_list(n);
      default: return list::generators::random_list(n, 7 + n);
    }
  }();
  engine::BlockedMatcher matcher;
  ASSERT_TRUE(matcher.init(src, small_config(16, 2)).ok());
  core::MatchResult blocked;
  ASSERT_TRUE(matcher.matching_into(blocked).ok());
  const core::MatchResult flat = core::sequential_matching(src);
  EXPECT_EQ(blocked.in_matching, flat.in_matching);
  EXPECT_EQ(blocked.edges, flat.edges);
  EXPECT_EQ(blocked.cost.work, flat.cost.work);
  EXPECT_EQ(blocked.cost.depth, flat.cost.depth);
  ASSERT_EQ(blocked.phases.size(), flat.phases.size());
  EXPECT_EQ(blocked.phases[0].name, flat.phases[0].name);

  std::vector<std::uint64_t> rank;
  ASSERT_TRUE(matcher.ranking_into(rank).ok());
  EXPECT_EQ(rank, apps::sequential_ranking(src));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedMatchShapes,
    ::testing::Combine(::testing::Values(1, 2, 15, 16, 17, 32, 33, 257, 1000),
                       ::testing::Values(0, 1, 2)));

TEST(BlockedMatcher, EightTimesCacheBudgetStillExact) {
  // 64 blocks of 128 nodes against an 8-block cache: the list is 8x the
  // cache budget, so the run must swap heavily — and still be exact.
  const std::size_t n = 64 * 128;
  const auto src = list::generators::random_list(n, 99);
  engine::BlockedMatcher matcher;
  ASSERT_TRUE(matcher.init(src, small_config(128, 8)).ok());
  matcher.reset_stats();
  core::MatchResult blocked;
  ASSERT_TRUE(matcher.matching_into(blocked).ok());
  const core::MatchResult flat = core::sequential_matching(src);
  EXPECT_EQ(blocked.in_matching, flat.in_matching);
  EXPECT_EQ(blocked.edges, flat.edges);

  const engine::EngineStats& st = matcher.stats();
  EXPECT_GT(st.misses, 0u);
  EXPECT_GT(st.loads, 0u);
  EXPECT_GT(st.spill_bytes, 0u);
  EXPECT_GT(st.swaps, 0u);
  EXPECT_GT(st.mailbox_posts, 0u);
  EXPECT_GT(st.mailbox_batches, 0u);
  EXPECT_GT(st.longest_segment, 0u);
  EXPECT_GT(st.hit_rate(), 0.0);
}

TEST(BlockedMatcher, AllResidentListNeedsNoIo) {
  const auto src = list::generators::random_list(100, 5);
  engine::BlockedMatcher matcher;
  engine::BlockConfig cfg = small_config(64, 4);  // 2 blocks, 4 frames
  ASSERT_TRUE(matcher.init(src, cfg).ok());
  matcher.reset_stats();
  core::MatchResult r;
  ASSERT_TRUE(matcher.matching_into(r).ok());
  EXPECT_EQ(matcher.stats().loads, 0u);
  EXPECT_EQ(matcher.stats().spills, 0u);
  EXPECT_EQ(r.edges, core::sequential_matching(src).edges);
}

TEST(BlockedMatcher, WarmRerunsAllocateNothing) {
  const auto src = list::generators::random_list(4096, 11);
  engine::BlockedMatcher matcher;
  ASSERT_TRUE(matcher.init(src, small_config(256, 4)).ok());
  core::MatchResult r;
  // Warm up twice: first run sizes the result and mailbox capacity.
  ASSERT_TRUE(matcher.matching_into(r).ok());
  ASSERT_TRUE(matcher.matching_into(r).ok());
  const std::uint64_t before = g_news;
  ASSERT_TRUE(matcher.matching_into(r).ok());
  ASSERT_TRUE(matcher.matching_into(r).ok());
  EXPECT_EQ(g_news - before, 0u)
      << "warm blocked runs must not allocate";
  EXPECT_EQ(r.edges, core::sequential_matching(src).edges);
}

TEST(BlockedMatcher, FromBudgetConfigRespectsByteBudget) {
  const engine::BlockConfig cfg = engine::BlockConfig::from_budget(
      64 * 1024, sizeof(engine::NodeRec), 512);
  EXPECT_EQ(cfg.block_nodes, 512u);
  EXPECT_EQ(cfg.cache_blocks, 64u * 1024 / (512 * sizeof(engine::NodeRec)));
  EXPECT_LE(cfg.cache_budget_bytes(sizeof(engine::NodeRec)), 64u * 1024);
}

// ---- Failpoints. ----------------------------------------------------------

class EngineFailpoints : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint::disarm_all(); }
};

TEST_F(EngineFailpoints, SpillFaultSurfacesAsStatus) {
  ASSERT_TRUE(
      support::failpoint::arm_from_string("engine.io.spill=status(unavailable)")
          .ok());
  const auto src = list::generators::random_list(512, 3);
  engine::BlockedMatcher matcher;
  const Status s = matcher.init(src, small_config(16, 2));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST_F(EngineFailpoints, LoadFaultSurfacesAsStatus) {
  const auto src = list::generators::random_list(512, 3);
  engine::BlockedMatcher matcher;
  ASSERT_TRUE(matcher.init(src, small_config(16, 2)).ok());
  ASSERT_TRUE(
      support::failpoint::arm_from_string("engine.io.load=status(unavailable)")
          .ok());
  core::MatchResult r;
  const Status s = matcher.matching_into(r);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_GE(support::failpoint::counts("engine.io.load").statuses, 1u);
}

TEST_F(EngineFailpoints, RecoversCleanlyAfterDisarm) {
  const auto src = list::generators::random_list(512, 3);
  engine::BlockedMatcher matcher;
  ASSERT_TRUE(matcher.init(src, small_config(16, 2)).ok());
  ASSERT_TRUE(
      support::failpoint::arm_from_string("engine.io.load=status(unavailable)")
          .ok());
  core::MatchResult r;
  ASSERT_FALSE(matcher.matching_into(r).ok());
  support::failpoint::disarm_all();
  ASSERT_TRUE(matcher.matching_into(r).ok());
  EXPECT_EQ(r.in_matching, core::sequential_matching(src).in_matching);
}

TEST_F(EngineFailpoints, EvictFailpointFiresOnEviction) {
  ASSERT_TRUE(support::failpoint::arm_from_string(
                  "engine.cache.evict=sleep(0):p=0")
                  .ok());
  const auto src = list::generators::random_list(512, 3);
  engine::BlockedMatcher matcher;
  ASSERT_TRUE(matcher.init(src, small_config(16, 2)).ok());
  EXPECT_GT(support::failpoint::counts("engine.cache.evict").evaluations, 0u);
}

}  // namespace
}  // namespace llmp
