// Tests for the execution context layer: the pooled ScratchArena, the
// ScratchVec lease, pram::Context's executor forwarding and phase metrics,
// the unified algorithm registry, and — the headline — that repeated
// maximal_matching calls through a warm Context perform ZERO heap
// allocations in the algorithm body (counted by overriding the global
// allocator below).
#include "pram/context.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "apps/register.h"
#include "core/maximal_matching.h"
#include "core/verify.h"
#include "list/generators.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/symbolic_exec.h"
#include "pram/thread_pool.h"

// ---- Counting global allocator. -------------------------------------------
// Single counter bumped by every operator new; tests snapshot it around the
// region under measurement. Counts, never blocks — gtest and the harness
// allocate freely outside the measured regions.

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
// The nothrow forms must be replaced alongside the throwing ones: libstdc++'s
// std::get_temporary_buffer (stable_sort) allocates via new(nothrow) and
// deallocates via plain delete — mixing the default nothrow new with the
// malloc-backed delete below is an alloc/dealloc mismatch under ASan.
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

// ---- ScratchArena / ScratchVec. ------------------------------------------

TEST(ScratchArena, TakeMatchesFreshVectorContents) {
  pram::ScratchArena arena;
  auto a = arena.take<int>(5, 7);
  EXPECT_EQ(a.vec(), std::vector<int>(5, 7));
  auto b = arena.take<std::uint8_t>(3);
  EXPECT_EQ(b.vec(), std::vector<std::uint8_t>(3, 0));
}

TEST(ScratchArena, ReleasedSlabIsReusedWithoutGrowth) {
  pram::ScratchArena arena;
  const int* data = nullptr;
  {
    auto a = arena.take<int>(100, 1);
    data = a.vec().data();
  }
  auto b = arena.take<int>(80, 2);  // fits in the released 100-slab
  EXPECT_EQ(b.vec().data(), data);
  EXPECT_EQ(b.vec(), std::vector<int>(80, 2));
  EXPECT_EQ(arena.takes(), 2u);
  EXPECT_EQ(arena.hits(), 1u);
}

TEST(ScratchArena, BestFitPrefersSmallestFittingSlab) {
  pram::ScratchArena arena;
  const int* small = nullptr;
  const int* large = nullptr;
  {
    auto a = arena.take<int>(64);
    auto b = arena.take<int>(4096);
    small = a.vec().data();
    large = b.vec().data();
  }
  // A 50-element take must come from the 64-slab, not the 4096 one.
  auto c = arena.take<int>(50);
  EXPECT_EQ(c.vec().data(), small);
  auto d = arena.take<int>(1000);  // only the 4096-slab fits
  EXPECT_EQ(d.vec().data(), large);
}

TEST(ScratchArena, PoolsAreKeyedByElementType) {
  pram::ScratchArena arena;
  { auto a = arena.take<std::uint32_t>(256); }
  // A different element type never sees the uint32 slab.
  auto b = arena.take<std::uint64_t>(16);
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_EQ(b.size(), 16u);
}

TEST(ScratchVec, MoveTransfersTheLease) {
  pram::ScratchArena arena;
  auto a = arena.take<int>(8, 1);
  const int* data = a.vec().data();
  pram::ScratchVec<int> b = std::move(a);
  EXPECT_EQ(b.vec().data(), data);
  b = arena.take<int>(4, 2);  // releases the 8-slab back to the pool
  auto c = arena.take<int>(8, 3);
  EXPECT_EQ(c.vec().data(), data);
}

TEST(ScratchVec, FreeScratchOnBareExecutorIsPlainHeap) {
  pram::SeqExec seq(4);
  auto v = pram::scratch<int>(seq, 6, 9);
  EXPECT_EQ(v.vec(), std::vector<int>(6, 9));
  EXPECT_EQ(pram::arena_ptr(seq), nullptr);
}

// ---- Context forwarding and metrics. -------------------------------------

TEST(Context, ForwardsStepsProcessorsAndStats) {
  pram::SeqExec seq(16);
  pram::Context ctx(seq);
  EXPECT_EQ(ctx.processors(), 16u);
  std::vector<int> a(32, 0);
  ctx.step(32, [&](std::size_t v, auto&& m) {
    m.wr(a, v, static_cast<int>(v));
  });
  ctx.step(32, 3, [&](std::size_t, auto&&) {});
  EXPECT_EQ(ctx.stats().depth, seq.stats().depth);
  EXPECT_EQ(seq.stats().depth, 2u);
  EXPECT_EQ(a[31], 31);
  EXPECT_EQ(&ctx.backend(), &seq);
}

TEST(Context, RecordsPhasesAndClearsThem) {
  pram::SeqExec seq(4);
  pram::Context ctx(seq);
  std::vector<int> a(8, 0);
  {
    auto span = ctx.phase_span("init");
    ctx.step(8, [&](std::size_t v, auto&& m) { m.wr(a, v, 1); });
  }
  pram::note_phase(ctx, "extra", pram::Stats{});
  ASSERT_EQ(ctx.phases().size(), 2u);
  EXPECT_EQ(ctx.phases()[0].name, "init");
  EXPECT_EQ(ctx.phases()[0].cost.depth, 1u);
  EXPECT_EQ(ctx.phases()[1].name, "extra");
  ctx.clear_phases();
  EXPECT_TRUE(ctx.phases().empty());
}

TEST(Context, NotePhaseIsANoopOnBareExecutors) {
  pram::SeqExec seq(4);
  pram::note_phase(seq, "ignored", pram::Stats{});  // must compile + no-op
  SUCCEED();
}

TEST(Context, AlgorithmsRecordPhasesIntoTheContextSink) {
  const auto list = list::generators::random_list(512, 3);
  pram::SeqExec seq(64);
  pram::Context ctx(seq);
  const auto r = core::maximal_matching(
      ctx, list, {.algorithm = core::Algorithm::kMatch4});
  EXPECT_FALSE(ctx.phases().empty());
  // The context sink mirrors the per-result breakdown.
  ASSERT_EQ(ctx.phases().size(), r.phases.size());
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    EXPECT_EQ(ctx.phases()[i].name, r.phases[i].name);
    EXPECT_EQ(ctx.phases()[i].cost.work, r.phases[i].cost.work);
  }
}

// ---- The registry is the one dispatch surface. ---------------------------

TEST(Registry, TableIsOrderedAndFindable) {
  apps::register_algorithms();
  const auto& reg = core::AlgorithmRegistry::instance();
  const auto rows = reg.prover_entries();
  ASSERT_EQ(rows.size(), 15u);
  EXPECT_EQ(rows.front()->name, "match1");
  EXPECT_EQ(rows.back()->name, "list-prefix");
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_LT(rows[i - 1]->order, rows[i]->order);
  const core::AlgorithmEntry* table = reg.find("match4-table");
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->matching);
  EXPECT_TRUE(table->canonical.partition_with_table);
  EXPECT_FALSE(table->formula.empty());
  EXPECT_EQ(reg.find("no-such-algorithm"), nullptr);
  // The non-prover baselines are listed but not swept.
  ASSERT_NE(reg.find("sequential"), nullptr);
  EXPECT_FALSE(reg.find("sequential")->in_prover);
}

TEST(Registry, EveryEntryRunsOnAllFourBackendsThroughContext) {
  apps::register_algorithms();
  const std::size_t kN = 96;
  const auto list = list::generators::random_list(kN, 5);
  pram::ThreadPool pool(2);
  for (const core::AlgorithmEntry* e :
       core::AlgorithmRegistry::instance().entries()) {
    // The sequential baseline is a host-side greedy walk: it legitimately
    // issues zero PRAM steps, so only the parallel entries assert depth.
    const bool steps_expected = e->name != "sequential";
    {
      pram::SeqExec seq(32);
      pram::Context ctx(seq);
      e->runner->run(ctx, list);
      if (steps_expected) EXPECT_GT(seq.stats().depth, 0u) << e->name;
    }
    {
      // Threshold 1: every step with a processor runs on the pool.
      pram::ParallelExec par(32, pool, /*threshold=*/1);
      pram::Context ctx(par);
      e->runner->run(ctx, list);
      if (steps_expected) EXPECT_GT(par.stats().depth, 0u) << e->name;
    }
    {
      // Under its declared model the dynamic checker must stay clean even
      // though Context's pooled arena recycles buffer addresses run-over-run.
      pram::Machine machine(e->declared, kN,
                            pram::Machine::OnViolation::kRecord);
      pram::Context ctx(machine);
      e->runner->run(ctx, list);
      e->runner->run(ctx, list);  // warm rerun: reused slabs, same verdict
      EXPECT_TRUE(machine.violations().empty()) << e->name;
    }
    {
      pram::SymbolicExec sym(kN);
      pram::Context ctx(sym);
      e->runner->run(ctx, list);
      if (steps_expected)
        EXPECT_FALSE(sym.take_trace().steps.empty()) << e->name;
    }
  }
}

TEST(Registry, BareBackendAndContextProduceIdenticalMatchings) {
  const auto list = list::generators::random_list(777, 11);
  for (core::Algorithm alg :
       {core::Algorithm::kSequential, core::Algorithm::kMatch1,
        core::Algorithm::kMatch2, core::Algorithm::kMatch3,
        core::Algorithm::kMatch4, core::Algorithm::kRandomized}) {
    core::MatchOptions opt;
    opt.algorithm = alg;
    pram::SeqExec bare(128);
    const auto r_bare = core::maximal_matching(bare, list, opt);
    pram::SeqExec backend(128);
    pram::Context ctx(backend);
    const auto r_ctx = core::maximal_matching(ctx, list, opt);
    EXPECT_EQ(r_bare.in_matching, r_ctx.in_matching) << to_string(alg);
    EXPECT_EQ(r_bare.cost.depth, r_ctx.cost.depth) << to_string(alg);
    EXPECT_EQ(r_bare.cost.work, r_ctx.cost.work) << to_string(alg);
    core::verify::check_maximal(list, r_ctx.in_matching);
  }
}

// ---- The zero-allocation guarantee. --------------------------------------

TEST(ContextAllocation, WarmMatchingRunsAllocateNothing) {
  const auto list = list::generators::random_list(4096, 7);
  pram::SeqExec seq(256);
  pram::Context ctx(seq);
  core::MatchResult r;
  // All deterministic algorithms hold the guarantee: Match2's counting
  // sort leases plan-presized buffers from the arena, and Match3's lookup
  // table is served from the process-wide cache after the first build.
  for (core::Algorithm alg :
       {core::Algorithm::kMatch1, core::Algorithm::kMatch2,
        core::Algorithm::kMatch3, core::Algorithm::kMatch4,
        core::Algorithm::kSequential}) {
    core::MatchOptions opt;
    opt.algorithm = alg;
    // Two warm-up runs populate the arena pool and the result capacities.
    core::maximal_matching_into(ctx, list, opt, r);
    ctx.clear_phases();
    core::maximal_matching_into(ctx, list, opt, r);
    ctx.clear_phases();

    const std::uint64_t before = g_news;
    core::maximal_matching_into(ctx, list, opt, r);
    const std::uint64_t after = g_news;
    EXPECT_EQ(after - before, 0u) << core::to_string(alg);
    ctx.clear_phases();
    core::verify::check_maximal(list, r.in_matching);
  }
  EXPECT_GT(ctx.arena().hits(), 0u);
}

TEST(ContextAllocation, WarmTablePathRunsAllocateNothing) {
  // Match4's Lemma 5 partition probes a lookup table; the process-wide
  // table cache makes warm runs allocation-free on this path too.
  const auto list = list::generators::random_list(4096, 7);
  pram::SeqExec seq(256);
  pram::Context ctx(seq);
  core::MatchResult r;
  core::MatchOptions opt;
  opt.algorithm = core::Algorithm::kMatch4;
  opt.partition_with_table = true;
  core::maximal_matching_into(ctx, list, opt, r);
  ctx.clear_phases();
  core::maximal_matching_into(ctx, list, opt, r);
  ctx.clear_phases();

  const std::uint64_t before = g_news;
  core::maximal_matching_into(ctx, list, opt, r);
  EXPECT_EQ(g_news - before, 0u);
  ctx.clear_phases();
  core::verify::check_maximal(list, r.in_matching);
}

}  // namespace
}  // namespace llmp
