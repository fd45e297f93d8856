// Executor concept and its fast implementations.
//
// Every algorithm in core/ and apps/ is a template over an Executor E
// whose single primitive is one synchronous PRAM step:
//
//   exec.step(nprocs, [&](std::size_t v, auto&& m) { ... });
//   exec.step(nprocs, unit_cost, body);   // body does `unit_cost` ops/proc
//
// Inside the body, shared memory is touched only through the accessor:
//
//   T x = m.rd(vec, i);      // read vec[i]
//   m.wr(vec, i, value);     // write vec[i]
//
// Algorithms obey the double-buffer discipline: within one step, no cell
// is read after any processor wrote it. Under that discipline, executing
// the virtual processors in any order — sequentially, or chunked over real
// threads — is equivalent to the PRAM's lockstep read-phase/write-phase
// semantics, so the fast executors below apply writes immediately. The
// discipline itself (plus EREW/CREW legality) is *verified* by
// pram::Machine (machine.h), which runs the same algorithm templates with
// tracked memory.
//
// Executors implement the cost model of stats.h: step(n, u, ·) adds
// ceil(n/p)·u to time_p, n·u to work, and 1 to depth, where p is the
// processor budget given at construction — a model parameter, independent
// of how many host threads actually execute the body.
//
// Beside step, the fast executors offer the *fused sweep* (sweep.h):
// sweep(n, u, body) is one accounted step whose body receives a contiguous
// index range [lo, hi) — inline below the parallel threshold, one chunk
// per pool thread above it — so hot kernels run raw-array loops with no
// per-element dispatch. sweep accounts exactly like step, so fused and
// legacy runs have bit-identical cost surfaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "pram/stats.h"
#include "pram/thread_pool.h"
#include "support/check.h"

namespace llmp::pram {

/// Untracked pass-through memory accessor used by the fast executors.
struct DirectMem {
  template <class T>
  T rd(const std::vector<T>& a, std::size_t i) const {
    LLMP_DCHECK(i < a.size());
    return a[i];
  }
  template <class T>
  void wr(std::vector<T>& a, std::size_t i, T v) const {
    LLMP_DCHECK(i < a.size());
    a[i] = v;
  }

  /// Vector-like handles (pram::ScratchVec) route through their .vec().
  template <class V>
    requires requires(const V& h) { h.vec(); }
  auto rd(const V& a, std::size_t i) const {
    return rd(a.vec(), i);
  }
  template <class V, class T>
    requires requires(V& h) { h.vec(); }
  void wr(V& a, std::size_t i, T v) const {
    using U = typename std::remove_reference_t<decltype(a.vec())>::value_type;
    wr(a.vec(), i, static_cast<U>(v));
  }
};

/// Sequential executor: virtual processors run in index order on the
/// calling thread. The default for tests and for benches, whose metric is
/// the cost model, not the wall clock.
class SeqExec {
 public:
  /// `processors` is the PRAM processor budget p used for time_p.
  explicit SeqExec(std::size_t processors) : p_(processors) {
    LLMP_CHECK(processors >= 1);
  }

  template <class F>
  void step(std::size_t nprocs, std::uint64_t unit_cost, F&& body) {
    account(nprocs, unit_cost);
    DirectMem m;
    for (std::size_t v = 0; v < nprocs; ++v) body(v, m);
  }

  template <class F>
  void step(std::size_t nprocs, F&& body) {
    step(nprocs, 1, std::forward<F>(body));
  }

  /// Fused sweep: one accounted step, body(0, nprocs) on the caller.
  template <class F>
  void sweep(std::size_t nprocs, std::uint64_t unit_cost, F&& range_body) {
    account(nprocs, unit_cost);
    if (nprocs != 0) range_body(std::size_t{0}, nprocs);
  }

  std::size_t processors() const { return p_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  void account(std::size_t nprocs, std::uint64_t unit_cost) {
    stats_.depth += 1;
    stats_.time_p += ceil_div(nprocs, p_) * unit_cost;
    stats_.work += static_cast<std::uint64_t>(nprocs) * unit_cost;
  }

  std::size_t p_;
  Stats stats_;
};

/// Threshold value meaning "never dispatch to the pool".
inline constexpr std::size_t kNeverParallel = static_cast<std::size_t>(-1);

/// Thread-pool executor: each step's virtual processors are chunked over
/// the pool. Correct for all llmp algorithms by the double-buffer
/// discipline (see header comment). The processor budget p for the cost
/// model is independent of the pool size, and so is the threshold below:
/// where a step stops running inline is a wall-clock choice the cost model
/// does not see.
class ParallelExec {
 public:
  /// Steps and sweeps with fewer processors than this run inline on the
  /// caller; larger ones run one contiguous chunk per pool thread.
  static constexpr std::size_t kDefaultParallelThreshold = 2048;

  /// A pool with zero workers pins the threshold at kNeverParallel, so the
  /// inline/pooled decision is made once here and never re-checks the
  /// pool's size per step.
  ParallelExec(std::size_t processors, ThreadPool& pool,
               std::size_t threshold = kDefaultParallelThreshold)
      : p_(processors),
        pool_(&pool),
        threshold_(pool.workers() == 0 ? kNeverParallel : threshold) {
    LLMP_CHECK(processors >= 1);
  }

  /// One step is one sweep whose range body visits its indices in order.
  template <class F>
  void step(std::size_t nprocs, std::uint64_t unit_cost, F&& body) {
    sweep(nprocs, unit_cost, [&body](std::size_t lo, std::size_t hi) {
      DirectMem m;
      for (std::size_t v = lo; v < hi; ++v) body(v, m);
    });
  }

  template <class F>
  void step(std::size_t nprocs, F&& body) {
    step(nprocs, 1, std::forward<F>(body));
  }

  /// Fused sweep: one accounted step; the body gets contiguous [lo, hi)
  /// ranges — the whole range inline below the threshold, one chunk per
  /// pool thread above it.
  template <class F>
  void sweep(std::size_t nprocs, std::uint64_t unit_cost, F&& range_body) {
    account(nprocs, unit_cost);
    if (nprocs == 0) return;
    if (nprocs < threshold_) {
      range_body(std::size_t{0}, nprocs);
      return;
    }
    pool_->parallel_for_slices(nprocs, range_body);
  }

  std::size_t processors() const { return p_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  /// The inline/pooled crossover (kNeverParallel = always inline).
  std::size_t parallel_threshold() const { return threshold_; }

 private:
  void account(std::size_t nprocs, std::uint64_t unit_cost) {
    stats_.depth += 1;
    stats_.time_p += ceil_div(nprocs, p_) * unit_cost;
    stats_.work += static_cast<std::uint64_t>(nprocs) * unit_cost;
  }

  std::size_t p_;
  ThreadPool* pool_;
  std::size_t threshold_;
  Stats stats_;
};

}  // namespace llmp::pram
