// Semantics of the serve layer (src/serve): queue backpressure, deadline
// and cancellation handling, graceful drain, concurrent correctness, and
// the zero-steady-state-allocation guarantee across worker Contexts.
//
// This binary instruments global operator new (like context_test.cpp) so
// ServiceStats::steady_allocs counts for real. Tests that need a held
// worker or a full queue use the on_dequeue hook to park workers on a
// latch — no sleeps-as-synchronization.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "llmp.h"
#include "serve/queue.h"
#include "stabilize/audit.h"
#include "stabilize/inject.h"
#include "support/alloc_counter.h"
#include "support/failpoint.h"

void* operator new(std::size_t size) {
  llmp::support::note_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Nothrow forms too: libstdc++ internals (std::get_temporary_buffer) pair
// new(nothrow) with plain delete, which must land on the same allocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  llmp::support::note_alloc();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace llmp {
namespace {

using core::MatchResult;
using serve::OverflowPolicy;
using serve::Request;
using serve::Service;
using serve::ServiceOptions;
using serve::ServiceStats;

list::LinkedList make_list(std::size_t n, std::uint64_t seed = 42) {
  return list::generators::random_list(n, seed);
}

/// A gate the on_dequeue hook can park workers on: tests open it to
/// release every held worker.
class Gate {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_entered_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// Block until `k` workers are parked on the gate.
  void await_waiting(int k) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_entered_.wait(lock, [&] { return waiting_ >= k; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable cv_entered_;
  int waiting_ = 0;
  bool open_ = false;
};

// ---- BoundedQueue unit tests. ----------------------------------------------

TEST(BoundedQueue, FifoWithinCapacity) {
  serve::BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(q.try_push(v));
  }
  int overflow = 99;
  EXPECT_FALSE(q.try_push(overflow));
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  serve::BoundedQueue<int> q(4);
  int v = 7;
  ASSERT_TRUE(q.try_push(v));
  q.close();
  int rejected = 8;
  EXPECT_FALSE(q.try_push(rejected));  // closed: no new work
  EXPECT_EQ(q.pop(), 7);               // …but queued work drains
  EXPECT_EQ(q.pop(), std::nullopt);    // then the shutdown signal
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  serve::BoundedQueue<int> q(1);
  int v = 1;
  ASSERT_TRUE(q.try_push(v));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });  // blocks: full
  q.close();
  producer.join();
}

// ---- Submit correctness. ---------------------------------------------------

TEST(Serve, SubmitMatchesDirectRunAndVerifies) {
  const auto lst = make_list(5000);
  Service svc({.workers = 2});
  auto fut = svc.submit({.list = &lst, .algorithm = "match4"});
  Result<MatchResult> r = fut.get();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(core::verify::matching_status(lst, r->in_matching).ok());
  EXPECT_TRUE(core::verify::maximal_status(lst, r->in_matching).ok());

  // Same edges as a direct single-threaded run (the algorithms are
  // deterministic).
  llmp::Context ctx;
  const auto direct = llmp::run(ctx, "match4", lst);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(r->edges, direct->edges);
  EXPECT_EQ(r->in_matching, direct->in_matching);
}

TEST(Serve, BlockedBudgetRequestMatchesFlatBesideIt) {
  // One blocked (budgeted) and one flat request on the same workers: the
  // out-of-core path must return the same matching the flat sequential
  // path does, and the engine's cost surface must ride the metrics the
  // flat result carries (cost/phases are part of MatchResult equality).
  const auto lst = make_list(20000);
  Service svc({.workers = 2});
  auto blocked_fut = svc.submit({.list = &lst,
                                 .algorithm = "sequential",
                                 .memory_budget_bytes = 64 * 1024});
  auto flat_fut = svc.submit({.list = &lst, .algorithm = "sequential"});
  Result<MatchResult> blocked = blocked_fut.get();
  Result<MatchResult> flat = flat_fut.get();
  ASSERT_TRUE(blocked.ok()) << blocked.status().to_string();
  ASSERT_TRUE(flat.ok()) << flat.status().to_string();
  EXPECT_EQ(blocked->in_matching, flat->in_matching);
  EXPECT_EQ(blocked->edges, flat->edges);
  EXPECT_EQ(blocked->cost.work, flat->cost.work);
  EXPECT_TRUE(core::verify::maximal_status(lst, blocked->in_matching).ok());
}

TEST(Serve, BudgetWithNonSequentialAlgorithmIsInvalidArgument) {
  // The block engine natively runs the greedy sequential walk; a budget
  // on any other algorithm is a contract violation caught at submit.
  const auto lst = make_list(1000);
  Service svc({.workers = 1});
  auto fut = svc.submit({.list = &lst,
                         .algorithm = "match4",
                         .memory_budget_bytes = 64 * 1024});
  const Result<MatchResult> r = fut.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The rejection happened before the queue: nothing was submitted.
  EXPECT_EQ(svc.stats().submitted, 0u);
}

TEST(Serve, SubmitBatchConcurrentCorrectness) {
  // Different algorithms and lists in flight at once; every result must
  // verify against its own list.
  std::vector<list::LinkedList> lists;
  for (std::uint64_t s = 0; s < 6; ++s) lists.push_back(make_list(2000, s));
  const char* algs[] = {"match1", "match2", "match3", "match4", "sequential"};

  Service svc({.workers = 4});
  std::vector<Request> reqs;
  for (std::size_t k = 0; k < 60; ++k)
    reqs.push_back({.list = &lists[k % lists.size()],
                    .algorithm = algs[k % 5]});
  auto futs = svc.submit_batch(std::move(reqs));
  ASSERT_EQ(futs.size(), 60u);
  for (std::size_t k = 0; k < futs.size(); ++k) {
    Result<MatchResult> r = futs[k].get();
    ASSERT_TRUE(r.ok()) << "request " << k << ": " << r.status().to_string();
    const auto& lst = lists[k % lists.size()];
    EXPECT_TRUE(core::verify::matching_status(lst, r->in_matching).ok());
    EXPECT_TRUE(core::verify::maximal_status(lst, r->in_matching).ok());
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 60u);
  EXPECT_EQ(st.completed, 60u);
  EXPECT_EQ(st.ok, 60u);
}

TEST(Serve, VerifyOptionAuditsResults) {
  const auto lst = make_list(1000);
  Service svc({.workers = 1, .verify = true});
  Result<MatchResult> r = svc.submit({.list = &lst}).get();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
}

// ---- Bad requests fail fast. -----------------------------------------------

TEST(Serve, UnknownAlgorithmIsNotFound) {
  const auto lst = make_list(100);
  Service svc({.workers = 1});
  Result<MatchResult> r =
      svc.submit({.list = &lst, .algorithm = "match99"}).get();
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Serve, InvalidOptionsAreInvalidArgument) {
  const auto lst = make_list(100);
  Service svc({.workers = 1});
  core::MatchOptions bad;
  bad.algorithm = core::Algorithm::kMatch4;
  bad.i_parameter = -3;
  Result<MatchResult> r = svc.submit({.list = &lst, .options = bad}).get();
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  Result<MatchResult> null_list = svc.submit({.list = nullptr}).get();
  EXPECT_EQ(null_list.status().code(), StatusCode::kInvalidArgument);
}

// ---- Backpressure. ---------------------------------------------------------

TEST(Serve, RejectPolicyShedsLoadWhenFull) {
  const auto lst = make_list(500);
  Gate gate;
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.overflow = OverflowPolicy::kReject;
  opt.on_dequeue = [&](std::size_t) { gate.wait(); };
  Service svc(opt);

  // First request parks the worker; two more fill the queue; the fourth
  // must be shed with kResourceExhausted.
  auto f0 = svc.submit({.list = &lst});
  gate.await_waiting(1);
  auto f1 = svc.submit({.list = &lst});
  auto f2 = svc.submit({.list = &lst});
  auto f3 = svc.submit({.list = &lst});
  EXPECT_EQ(f3.get().status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(svc.stats().rejected, 1u);

  gate.open();
  EXPECT_TRUE(f0.get().ok());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
}

TEST(Serve, BlockPolicyAppliesBackpressure) {
  const auto lst = make_list(500);
  Gate gate;
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  opt.overflow = OverflowPolicy::kBlock;
  opt.on_dequeue = [&](std::size_t) { gate.wait(); };
  Service svc(opt);

  auto f0 = svc.submit({.list = &lst});  // parks the worker
  gate.await_waiting(1);
  auto f1 = svc.submit({.list = &lst});  // fills the queue

  // The next submit must block until the gate opens and a slot frees.
  std::atomic<bool> submitted{false};
  std::future<Result<MatchResult>> f2;
  std::thread submitter([&] {
    f2 = svc.submit({.list = &lst});
    submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(submitted.load());  // still blocked on the full queue

  gate.open();
  submitter.join();
  EXPECT_TRUE(submitted.load());
  EXPECT_TRUE(f0.get().ok());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
}

// ---- Deadlines and cancellation. -------------------------------------------

TEST(Serve, DeadlineExpiryMidQueue) {
  const auto lst = make_list(500);
  Gate gate;
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 8;
  opt.on_dequeue = [&](std::size_t) { gate.wait(); };
  Service svc(opt);

  auto running = svc.submit({.list = &lst});  // parks the worker
  gate.await_waiting(1);
  // Queued behind the parked worker with an already-tight deadline.
  auto doomed = svc.submit(
      {.list = &lst,
       .deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(1)});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_EQ(doomed.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(svc.stats().expired, 1u);
}

TEST(Serve, CancellationMidQueue) {
  const auto lst = make_list(500);
  Gate gate;
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 8;
  opt.on_dequeue = [&](std::size_t) { gate.wait(); };
  Service svc(opt);

  auto running = svc.submit({.list = &lst});
  gate.await_waiting(1);
  serve::CancelToken token = serve::make_cancel_token();
  auto cancelled = svc.submit({.list = &lst, .cancel = token});
  token->store(true);  // cancel while still queued
  gate.open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_EQ(cancelled.get().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

// ---- Shutdown. -------------------------------------------------------------

TEST(Serve, ShutdownDrainsAcceptedWork) {
  const auto lst = make_list(2000);
  Service svc({.workers = 2, .queue_capacity = 64});
  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < 20; ++k) futs.push_back(svc.submit({.list = &lst}));
  svc.shutdown();  // returns only after every accepted request completes
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(svc.stats().completed, 20u);
  EXPECT_EQ(svc.stats().queue_depth, 0u);
}

TEST(Serve, SubmitAfterShutdownIsUnavailable) {
  const auto lst = make_list(100);
  Service svc({.workers = 1});
  svc.shutdown();
  Result<MatchResult> r = svc.submit({.list = &lst}).get();
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  svc.shutdown();  // idempotent
}

TEST(Serve, DestructorDrains) {
  const auto lst = make_list(1000);
  std::vector<std::future<Result<MatchResult>>> futs;
  {
    Service svc({.workers = 2});
    for (int k = 0; k < 8; ++k) futs.push_back(svc.submit({.list = &lst}));
  }  // ~Service == shutdown(): every future below must be ready and OK
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
}

TEST(Serve, WorkerOverlapHidesDownstreamWaits) {
  // Each request waits on something downstream before it runs — here a
  // rendezvous that opens only once every worker is waiting at the same
  // time. A Service whose workers overlap reaches it at once; one that
  // serializes them reaches the shared deadline instead, so a broken
  // Service fails this test rather than hanging it.
  constexpr int kWorkers = 8;
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;       // workers waiting right now
  int most_parked = 0;  // the most that ever waited at once
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ServiceOptions opt;
  opt.workers = kWorkers;
  opt.on_dequeue = [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    most_parked = std::max(most_parked, ++parked);
    cv.notify_all();
    cv.wait_until(lock, deadline, [&] { return most_parked == kWorkers; });
    --parked;
  };
  Service svc(opt);
  const auto lst = make_list(1000);
  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < kWorkers; ++k) {
    Request req;
    req.list = &lst;
    futs.push_back(svc.submit(std::move(req)));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(most_parked, kWorkers) << "workers waiting at once";
}

// ---- Stats and the steady-state allocation guarantee. ----------------------

TEST(Serve, StatsCountLatencyAndQueueDepth) {
  const auto lst = make_list(1000);
  Service svc({.workers = 2});
  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < 10; ++k) futs.push_back(svc.submit({.list = &lst}));
  for (auto& f : futs) ASSERT_TRUE(f.get().ok());
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 10u);
  EXPECT_EQ(st.completed, 10u);
  EXPECT_EQ(st.ok, 10u);
  EXPECT_EQ(st.workers, 2u);
  EXPECT_GT(st.p50_latency_us, 0u);
  EXPECT_GE(st.p99_latency_us, st.p50_latency_us);
  EXPECT_GT(st.arena_takes, 0u);
}

TEST(Serve, SteadyStateAllocationsAreZeroAfterWarmup) {
  // Same-size lists cycling through warm workers: after warmup and a
  // stats reset, the in-scope allocation counter must not move. Covers
  // match2 and match3 too (their buffers are plan-presized and the lookup
  // table is served from the process-wide cache).
  std::vector<list::LinkedList> lists;
  for (std::uint64_t s = 0; s < 4; ++s) lists.push_back(make_list(3000, s));
  const char* algs[] = {"match1", "match2", "match3", "match4"};

  // Which worker takes which request depends on scheduling, so the
  // warm-up pairs them: each (algorithm, list) pair the measured phase
  // sends goes out twice at once, and a worker that dequeues one copy
  // waits until the other worker has dequeued the other. Every worker
  // thus runs every pair before the measured phase.
  std::mutex mu;
  std::condition_variable cv;
  bool pairing = true;
  std::size_t dequeued = 0;
  ServiceOptions opts;
  opts.workers = 2;
  opts.on_dequeue = [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (!pairing) return;
    const std::size_t pair_end = (dequeued++ / 2 + 1) * 2;
    cv.notify_all();
    cv.wait(lock, [&] { return dequeued >= pair_end; });
  };
  Service svc(opts);
  auto fire = [&](int count) {
    std::vector<std::future<Result<MatchResult>>> futs;
    for (int k = 0; k < count; ++k)
      futs.push_back(svc.submit({.list = &lists[k % lists.size()],
                                 .algorithm = algs[k % 4]}));
    for (auto& f : futs) ASSERT_TRUE(f.get().ok());
  };
  for (std::size_t k = 0; k < 4; ++k) {
    Request req;
    req.list = &lists[k];
    req.algorithm = algs[k];
    auto a = svc.submit(req);
    auto b = svc.submit(req);
    ASSERT_TRUE(a.get().ok());
    ASSERT_TRUE(b.get().ok());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    pairing = false;
  }
  fire(48);  // then both workers across all four algorithms, in any order
  svc.reset_stats();
  fire(40);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.steady_allocs, 0u)
      << "warm serve requests must not allocate in the algorithm body";
  EXPECT_EQ(st.arena_takes, st.arena_hits)
      << "every warm scratch lease must come from the pool";
}

// ---- Resilience: supervision, retries, watchdog, degradation. --------------

namespace fp = support::failpoint;

/// Resilience tests arm failpoints; every one of them must leave the
/// process clean (other tests in this binary assert fault-free behavior).
class ServeResilience : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm_all(); }

  static bool poll_until(const std::function<bool()>& pred,
                         std::chrono::milliseconds limit) {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < limit) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }
};

TEST_F(ServeResilience, WorkerSurvivesThrowingRequest) {
  // An exception escaping a request fails that future — retryably, with
  // the injected code — and the worker keeps serving (the silent-death
  // regression test: before supervision, the second future never became
  // ready).
  const auto lst = make_list(500);
  Service svc({.workers = 1});
  ASSERT_TRUE(fp::arm_from_string("serve.worker.run=throw:n=1").ok());

  auto doomed = svc.submit({.list = &lst});
  auto healthy = svc.submit({.list = &lst});
  const Status s = doomed.get().status();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(s.retryable());
  EXPECT_TRUE(healthy.get().ok()) << "worker died with the request";

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.restarts, 1u);  // context rebuilt after the escape
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.quarantined, 0u);  // retries were not configured
}

TEST_F(ServeResilience, RetrySucceedsAfterTransientFault) {
  const auto lst = make_list(500);
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry = {.max_attempts = 3,
               .backoff_base = std::chrono::milliseconds(1),
               .backoff_max = std::chrono::milliseconds(4)};
  Service svc(opt);
  ASSERT_TRUE(
      fp::arm_from_string("serve.worker.run=status(unavailable):n=2").ok());

  Result<MatchResult> r = svc.submit({.list = &lst}).get();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(core::verify::matching_status(lst, r->in_matching).ok());

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.ok, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.quarantined, 0u);
  EXPECT_EQ(st.restarts, 0u);  // a status rule does not escape
}

TEST_F(ServeResilience, QuarantineAfterMaxAttempts) {
  const auto lst = make_list(500);
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry = {.max_attempts = 2,
               .backoff_base = std::chrono::milliseconds(1),
               .backoff_max = std::chrono::milliseconds(2)};
  Service svc(opt);
  ASSERT_TRUE(fp::arm_from_string("serve.worker.run=status(internal)").ok());

  Result<MatchResult> r = svc.submit({.list = &lst}).get();
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.retries, 1u);      // one retry was granted…
  EXPECT_EQ(st.quarantined, 1u);  // …then the request was given up on
  EXPECT_EQ(st.failed, 1u);
}

TEST_F(ServeResilience, ShutdownDuringWorkerRestarts) {
  // Injected pop faults fire before any item is dequeued, so a shutdown
  // racing a storm of worker restarts still drains every accepted
  // request.
  const auto lst = make_list(500);
  Service svc({.workers = 2, .queue_capacity = 32});
  ASSERT_TRUE(fp::arm_from_string("serve.queue.pop=throw:p=0.5").ok());

  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < 20; ++k) futs.push_back(svc.submit({.list = &lst}));
  svc.shutdown();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(svc.stats().completed, 20u);
}

TEST_F(ServeResilience, CancelDuringRetryBackoff) {
  const auto lst = make_list(500);
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry = {.max_attempts = 3,
               .backoff_base = std::chrono::milliseconds(200),
               .backoff_max = std::chrono::milliseconds(200)};
  Service svc(opt);
  ASSERT_TRUE(
      fp::arm_from_string("serve.worker.run=status(unavailable):n=1").ok());

  serve::CancelToken token = serve::make_cancel_token();
  auto fut = svc.submit({.list = &lst, .cancel = token});
  ASSERT_TRUE(poll_until([&] { return svc.stats().retries >= 1; },
                         std::chrono::seconds(10)))
      << "first attempt never failed into a retry";
  token->store(true);  // cancel while the request waits out its backoff
  EXPECT_EQ(fut.get().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST_F(ServeResilience, DeadlineExpiresWhileQueuedForRetry) {
  const auto lst = make_list(500);
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry = {.max_attempts = 3,
               .backoff_base = std::chrono::milliseconds(300),
               .backoff_max = std::chrono::milliseconds(300)};
  Service svc(opt);
  ASSERT_TRUE(fp::arm_from_string("serve.worker.run=status(unavailable)").ok());

  // The backoff (>=300ms) outlives the deadline (50ms): whether the
  // deadline passes in the queue or in the retry park, the future must
  // expire, never hang or exhaust attempts as kUnavailable.
  auto fut = svc.submit({.list = &lst,
                         .deadline = std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(50)});
  EXPECT_EQ(fut.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(svc.stats().expired, 1u);
}

TEST_F(ServeResilience, ShutdownFlushesPendingRetries) {
  const auto lst = make_list(500);
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry = {.max_attempts = 2,
               .backoff_base = std::chrono::seconds(10),
               .backoff_max = std::chrono::seconds(10)};
  Service svc(opt);
  ASSERT_TRUE(
      fp::arm_from_string("serve.worker.run=status(internal):n=1").ok());

  auto fut = svc.submit({.list = &lst});
  ASSERT_TRUE(poll_until([&] { return svc.stats().retries >= 1; },
                         std::chrono::seconds(10)));
  const auto t0 = std::chrono::steady_clock::now();
  svc.shutdown();  // must not wait out the 10s backoff
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(fut.get().status().code(), StatusCode::kInternal);  // last error
}

TEST_F(ServeResilience, WatchdogReplacesWedgedWorker) {
  // No failpoints: the first request wedges its worker on a gate; the
  // watchdog must retire that worker and spawn a replacement that serves
  // the rest. The wedged request still completes once the gate opens.
  const auto lst = make_list(500);
  Gate gate;
  std::atomic<int> dequeues{0};
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 8;
  opt.wedge_threshold = std::chrono::milliseconds(30);
  opt.supervisor_period = std::chrono::milliseconds(5);
  opt.on_dequeue = [&](std::size_t) {
    if (dequeues.fetch_add(1) == 0) gate.wait();  // wedge the first only
  };
  Service svc(opt);

  auto wedged = svc.submit({.list = &lst});
  gate.await_waiting(1);
  std::vector<std::future<Result<MatchResult>>> rest;
  for (int k = 0; k < 3; ++k) rest.push_back(svc.submit({.list = &lst}));
  // The replacement worker (not the wedged one) must finish these.
  for (auto& f : rest) EXPECT_TRUE(f.get().ok());
  EXPECT_GE(svc.stats().watchdog_fires, 1u);
  EXPECT_EQ(svc.stats().workers, 1u);  // slot count is stable

  gate.open();
  EXPECT_TRUE(wedged.get().ok());  // late, not lost
  svc.shutdown();                  // joins the retired thread too
  EXPECT_EQ(svc.stats().completed, 4u);
}

TEST_F(ServeResilience, DegradesToSequentialAndKeepsServing) {
  // Acceptance scenario: match3's table build fails permanently; with
  // retries + degradation on, every client still gets a correct matching
  // (served by `sequential`) and no future ever errors.
  const auto lst = make_list(3000);
  ServiceOptions opt;
  opt.workers = 1;
  opt.retry = {.max_attempts = 4,
               .backoff_base = std::chrono::milliseconds(1),
               .backoff_max = std::chrono::milliseconds(4)};
  opt.degrade = {.enabled = true,
                 .after_consecutive_failures = 1,
                 .probe_every = 8};
  Service svc(opt);
  ASSERT_TRUE(fp::arm_from_string("core.match3.table=throw").ok());

  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < 12; ++k)
    futs.push_back(svc.submit({.list = &lst, .algorithm = "match3"}));
  for (auto& f : futs) {
    Result<MatchResult> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_TRUE(core::verify::matching_status(lst, r->in_matching).ok());
    EXPECT_TRUE(core::verify::maximal_status(lst, r->in_matching).ok());
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.ok, 12u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.quarantined, 0u);
  EXPECT_GT(st.degraded, 0u) << "fallback never engaged";

  // Fault cleared: a probe eventually restores the real algorithm.
  fp::disarm_all();
  std::vector<std::future<Result<MatchResult>>> after;
  for (int k = 0; k < 20; ++k)
    after.push_back(svc.submit({.list = &lst, .algorithm = "match3"}));
  for (auto& f : after) EXPECT_TRUE(f.get().ok());
  const ServiceStats st2 = svc.stats();
  EXPECT_EQ(st2.failed, 0u);
}


// ---- Checking damaged answers: verify and the audit policies. --------------
//
// stabilize.corrupt.match damages a result in the worker after the
// algorithm ran. Under kOff, ServiceOptions::verify is the only check;
// under kAudit and kRepair the audit is, and verify is skipped because it
// would recheck the same predicate on the same arrays.

TEST_F(ServeResilience, VerifyRejectsADamagedAnswerWhenAuditIsOff) {
  const auto lst = make_list(1000);
  Service svc({.workers = 1, .verify = true});
  ASSERT_TRUE(
      fp::arm_from_string("stabilize.corrupt.match=status(data_loss)").ok());
  Result<MatchResult> r =
      svc.submit({.list = &lst, .algorithm = "match4"}).get();
  ASSERT_EQ(fp::counts("stabilize.corrupt.match").statuses, 1u);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedVerification);

  // Replay the damage: the first request's id, 0, seeds break_matching.
  Context ctx;
  Options unchecked;
  unchecked.verify = false;
  std::vector<std::uint8_t> damaged =
      run(ctx, "match4", lst, unchecked)->in_matching;
  ASSERT_EQ(stabilize::break_matching(lst.next_array(), damaged, 0, 1), 1u);
  const stabilize::CorruptionReport report =
      stabilize::audit_matching(lst.next_array(), damaged);
  ASSERT_NE(report.first(), nullptr);
  EXPECT_EQ(r.status().message(), report.summary());
  EXPECT_EQ(r.status().message().rfind(
                "node " + std::to_string(report.first()->node) + ": ", 0),
            0u);
  EXPECT_EQ(svc.stats().audits_failed, 0u);
}

TEST_F(ServeResilience, AuditFailsDamagedAnswersWithVerifyOn) {
  const auto lst = make_list(1000);
  Service svc(
      {.workers = 1, .verify = true, .audit = serve::AuditPolicy::kAudit});
  ASSERT_TRUE(
      fp::arm_from_string("stabilize.corrupt.match=status(data_loss):p=0.5")
          .ok());
  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < 32; ++k) futs.push_back(svc.submit({.list = &lst}));
  std::uint64_t ok = 0, data_loss = 0;
  for (auto& f : futs) {
    const Result<MatchResult> r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
      ++data_loss;
    }
  }
  const std::uint64_t fired = fp::counts("stabilize.corrupt.match").statuses;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 32u);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.audits_failed, fired);
  EXPECT_EQ(data_loss, fired);
  EXPECT_EQ(ok, 32u - fired);
  EXPECT_EQ(st.repairs, 0u);
}

TEST_F(ServeResilience, RepairHealsDamagedAnswersWithVerifyOn) {
  const auto lst = make_list(1000);
  Service svc(
      {.workers = 1, .verify = true, .audit = serve::AuditPolicy::kRepair});
  ASSERT_TRUE(
      fp::arm_from_string("stabilize.corrupt.match=status(data_loss):p=0.5")
          .ok());
  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < 32; ++k) futs.push_back(svc.submit({.list = &lst}));
  for (auto& f : futs) {
    const Result<MatchResult> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_NO_THROW(core::verify::check_matching(lst, r->in_matching));
    EXPECT_NO_THROW(core::verify::check_maximal(lst, r->in_matching));
    EXPECT_EQ(r->edges, core::verify::matching_size(r->in_matching));
  }
  const std::uint64_t fired = fp::counts("stabilize.corrupt.match").statuses;
  EXPECT_GT(fired, 0u);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.audits_failed, fired);
  EXPECT_EQ(st.repairs, fired);
  EXPECT_EQ(st.ok, 32u);
}

}  // namespace
}  // namespace llmp
