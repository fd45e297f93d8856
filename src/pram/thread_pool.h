// Persistent SPMD worker pool.
//
// The pool owns `workers` threads that sleep between jobs. Its one
// dispatch, `parallel_for_slices`, splits an index range into contiguous
// chunks, one per worker plus the calling thread, calls the body once per
// chunk with that chunk's [lo, hi), and blocks until all chunks complete.
// Exceptions thrown by the body are captured and rethrown on the caller
// (first one wins).
//
// `parallel_for_slices` is a template: the per-chunk call is inlined at
// the call site, and only the per-*chunk* dispatch is type-erased — as a
// raw {function pointer, context pointer} pair, not a std::function — so
// per-step dispatch cost does not scale with the step's processor count.
// The erasure is safe without ownership because dispatch blocks until
// every slice has run.
//
// The pool backs ParallelExec's synchronous steps: because every algorithm
// step writes only cells that no other virtual processor reads in the same
// step (the double-buffer discipline that pram::Machine verifies), chunked
// unordered execution of one step is equivalent to lockstep execution.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace llmp::pram {

class ThreadPool {
 public:
  /// Spawn `workers` background threads (>= 0; 0 makes
  /// parallel_for_slices run entirely on the caller).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Apply body(lo, hi) once per contiguous chunk of [0, n): chunk tid <
  /// workers() runs on worker tid, the last chunk on the caller. The body
  /// runs its own loop over the span. Blocks until done; rethrows the first
  /// body exception.
  template <class F>
  void parallel_for_slices(std::size_t n, F&& body) {
    if (n == 0) return;
    const std::size_t slices = threads_.size() + 1;
    const std::size_t chunk = (n + slices - 1) / slices;
    auto slice = [&body, n, chunk](std::size_t tid) {
      const std::size_t lo = std::min(n, tid * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      if (lo < hi) body(lo, hi);
    };
    dispatch(&invoke<decltype(slice)>, &slice);
  }

  std::size_t workers() const { return threads_.size(); }

 private:
  /// Type-erased per-slice job: fn(ctx, tid). ctx outlives the dispatch
  /// because dispatch blocks until all slices finish.
  using SliceFn = void (*)(void* ctx, std::size_t tid);

  template <class F>
  static void invoke(void* ctx, std::size_t tid) {
    (*static_cast<F*>(ctx))(tid);
  }

  void worker_loop(std::size_t tid);
  /// Run fn(ctx, tid) once per worker (tid < workers()) and once on the
  /// caller (tid == workers()). With zero workers the caller runs tid 0
  /// under the same exception-capture protocol as the threaded path.
  void dispatch(SliceFn fn, void* ctx);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  SliceFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t epoch_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace llmp::pram
