// Tests for the SPMD thread pool, plus ParallelExec's inline/pooled
// dispatch seam at its parallel threshold.
#include "pram/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "pram/executor.h"

namespace llmp::pram {
namespace {

/// Adds 1 to hits[i] for every i in [lo, hi).
auto count_into(std::vector<std::atomic<int>>& hits) {
  return [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  };
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  // n below the slice count leaves trailing chunks empty; they must not
  // call the body.
  for (std::size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool(workers);
    for (std::size_t n : {1u, 2u, 3u, 5u, 10000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for_slices(n, count_into(hits));
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1)
            << "workers=" << workers << " n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for_slices(0, [&](std::size_t, std::size_t) {
    touched = true;
  });
  EXPECT_FALSE(touched);
}

/// Throws from the chunk that holds index 57 of [0, 100).
void throw_at_57(ThreadPool& pool) {
  pool.parallel_for_slices(100, [](std::size_t lo, std::size_t hi) {
    if (lo <= 57 && 57 < hi) throw std::runtime_error("boom");
  });
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(throw_at_57(pool), std::runtime_error);
  // The pool survives and is reusable after an exception.
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for_slices(10, count_into(hits));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInlineAndPropagatesExceptions) {
  // workers == 0 must degrade to one chunk on the caller thread: full
  // coverage, exceptions surfaced, pool reusable after.
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  EXPECT_THROW(throw_at_57(pool), std::runtime_error);
  std::size_t calls = 0;  // no atomics needed: everything is inline
  pool.parallel_for_slices(10, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, ManySmallJobsReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round)
    pool.parallel_for_slices(16, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        total.fetch_add(i, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 200u * 120u);
}

TEST(ParallelExec, ThresholdBoundaryMatchesSeqExecExactly) {
  // ParallelExec runs steps with nprocs below its threshold inline and
  // dispatches larger ones to the pool. One below, at, and one above the
  // default threshold must all produce the same memory contents and the
  // same Stats as SeqExec.
  const std::size_t t = ParallelExec::kDefaultParallelThreshold;
  for (std::size_t n : {t - 1, t, t + 1}) {
    SeqExec seq(64);
    ThreadPool pool(3);
    ParallelExec par(64, pool);
    ASSERT_EQ(par.parallel_threshold(), t);
    std::vector<std::uint64_t> a_seq(n, 1), b_seq(n, 0);
    std::vector<std::uint64_t> a_par(n, 1), b_par(n, 0);
    auto run = [n](auto& exec, std::vector<std::uint64_t>& a,
                   std::vector<std::uint64_t>& b) {
      exec.step(n, [&](std::size_t v, auto&& m) {
        m.wr(b, v, m.rd(a, v) + v);
      });
      exec.step(n, 5, [&](std::size_t v, auto&& m) {
        m.wr(a, v, m.rd(b, (v + 1) % n));
      });
    };
    run(seq, a_seq, b_seq);
    run(par, a_par, b_par);
    EXPECT_EQ(a_seq, a_par) << "n=" << n;
    EXPECT_EQ(b_seq, b_par) << "n=" << n;
    EXPECT_EQ(seq.stats().depth, par.stats().depth) << "n=" << n;
    EXPECT_EQ(seq.stats().time_p, par.stats().time_p) << "n=" << n;
    EXPECT_EQ(seq.stats().work, par.stats().work) << "n=" << n;
    EXPECT_EQ(seq.stats().reads, par.stats().reads) << "n=" << n;
    EXPECT_EQ(seq.stats().writes, par.stats().writes) << "n=" << n;
  }
}

TEST(ThreadPool, ParallelForSlicesCoversRangeExactlyOnce) {
  for (std::size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool(workers);
    const std::size_t n = 9973;  // prime: uneven chunking
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_slices(n, [&](std::size_t lo, std::size_t hi) {
      ASSERT_LE(lo, hi);
      for (std::size_t i = lo; i < hi; ++i)
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
  }
}

TEST(ParallelExec, SweepAccountsExactlyLikeStep) {
  // sweep(n, u, range_body) must charge the cost surface byte-identically
  // to step(n, u, body) — that is what keeps fused algorithms bit-equal to
  // the referee. Run one of each shape on both executors and compare.
  const std::size_t t = ParallelExec::kDefaultParallelThreshold;
  for (std::size_t n : {t - 1, t, t + 1}) {
    ThreadPool pool(3);
    ParallelExec stepper(64, pool, t);
    ParallelExec sweeper(64, pool, t);
    std::vector<std::uint64_t> a(n, 0), b(n, 0);
    stepper.step(n, [&](std::size_t v, auto&& m) { m.wr(a, v, v); });
    stepper.step(n, 7, [&](std::size_t v, auto&& m) { m.wr(a, v, 2 * v); });
    std::uint64_t* bp = b.data();
    sweeper.sweep(n, 1, [bp](std::size_t lo, std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) bp[v] = v;
    });
    sweeper.sweep(n, 7, [bp](std::size_t lo, std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) bp[v] = 2 * v;
    });
    EXPECT_EQ(a, b) << "n=" << n;
    EXPECT_EQ(stepper.stats().depth, sweeper.stats().depth);
    EXPECT_EQ(stepper.stats().time_p, sweeper.stats().time_p);
    EXPECT_EQ(stepper.stats().work, sweeper.stats().work);
  }
}

TEST(ParallelExec, ZeroWorkerPoolHoistsDispatchDecision) {
  // With no workers the pooled path can never win, so construction pins
  // the threshold at kNeverParallel once and no step re-checks
  // pool.workers().
  ThreadPool pool(0);
  ParallelExec exec(64, pool);
  EXPECT_EQ(exec.parallel_threshold(), kNeverParallel);
  const std::size_t n = 100000;
  std::vector<std::uint64_t> a(n, 0);
  exec.step(n, [&](std::size_t v, auto&& m) { m.wr(a, v, v + 1); });
  for (std::size_t v = 0; v < n; ++v) ASSERT_EQ(a[v], v + 1);
}

}  // namespace
}  // namespace llmp::pram
