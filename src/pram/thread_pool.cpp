#include "pram/thread_pool.h"

#include "support/check.h"

namespace llmp::pram {

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t)
    threads_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& th : threads_) th.join();
}

void ThreadPool::worker_loop(std::size_t tid) {
  std::size_t seen_epoch = 0;
  for (;;) {
    SliceFn fn = nullptr;
    void* ctx = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_job_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      fn = job_fn_;
      ctx = job_ctx_;
    }
    try {
      fn(ctx, tid);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::dispatch(SliceFn fn, void* ctx) {
  if (threads_.empty()) {
    // Zero-worker path: the caller is the only slice (tid == workers()
    // == 0). Same protocol as below — capture into first_error_, then
    // rethrow once — so behavior is uniform whatever the pool size.
    LLMP_CHECK_MSG(pending_ == 0, "ThreadPool::dispatch is not reentrant");
    try {
      fn(ctx, 0);
    } catch (...) {
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (first_error_) {
      auto e = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(e);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    LLMP_CHECK_MSG(pending_ == 0, "ThreadPool::dispatch is not reentrant");
    job_fn_ = fn;
    job_ctx_ = ctx;
    pending_ = threads_.size();
    ++epoch_;
  }
  cv_job_.notify_all();
  // The caller runs the final slice itself (tid == workers()).
  try {
    fn(ctx, threads_.size());
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
    if (first_error_) {
      auto e = first_error_;
      first_error_ = nullptr;
      lk.unlock();
      std::rethrow_exception(e);
    }
  }
}

}  // namespace llmp::pram
