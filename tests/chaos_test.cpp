// Chaos harness: hammers serve::Service from many client threads while a
// failpoint schedule injects worker crashes, scratch-allocation failures,
// queue faults and stragglers — then checks the self-healing invariants:
//
//   * every accepted future completes (no deadlock, no silent loss),
//   * the injected-fault counters reconcile exactly with the service's
//     retry/failure statistics,
//   * capacity recovers once the faults stop (throughput comparable to
//     the pre-chaos baseline, zero failures afterward),
//   * with every failpoint disarmed the zero-steady-state-allocation
//     guarantee still holds (the hooks are free when disabled).
//
// The binary instruments global operator new (like serve_test.cpp) so
// ServiceStats::steady_allocs counts for real.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sequential.h"
#include "engine/blocked_match.h"
#include "llmp.h"
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

namespace fp = support::failpoint;

using core::MatchResult;
using serve::Request;
using serve::Service;
using serve::ServiceOptions;
using serve::ServiceStats;

class Chaos : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm_all(); }
};

constexpr std::size_t kListSize = 512;

/// Fire `count` requests from `threads` submitter threads, wait for every
/// future, and return how many came back OK (the rest carried an error
/// status — a future that never becomes ready would hang the test, which
/// is itself the deadlock detector). Algorithms cycle over the whole
/// registry to exercise every code path under fault.
std::uint64_t hammer(Service& svc, const std::vector<list::LinkedList>& lists,
                     int count, int threads) {
  static const char* kAlgs[] = {"match1", "match2", "match3", "match4",
                                "sequential"};
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  const int per = count / threads;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<Result<MatchResult>>> futs;
      futs.reserve(static_cast<std::size_t>(per));
      for (int k = 0; k < per; ++k) {
        const int j = t * per + k;
        futs.push_back(
            svc.submit({.list = &lists[static_cast<std::size_t>(j) %
                                       lists.size()],
                        .algorithm = kAlgs[j % 5]}));
      }
      for (auto& f : futs)
        if (f.get().ok()) ok.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& c : clients) c.join();
  return ok.load();
}

TEST_F(Chaos, FaultStormCompletesReconcilesAndRecovers) {
  std::vector<list::LinkedList> lists;
  for (std::uint64_t s = 0; s < 3; ++s)
    lists.push_back(list::generators::random_list(kListSize, s));

  ServiceOptions opt;
  opt.workers = 4;
  opt.queue_capacity = 128;
  opt.retry = {.max_attempts = 3,
               .backoff_base = std::chrono::milliseconds(1),
               .backoff_max = std::chrono::milliseconds(8)};
  Service svc(opt);

  // Baseline: no faults.
  constexpr int kBaseline = 1000;
  const auto base_t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(hammer(svc, lists, kBaseline, 4),
            static_cast<std::uint64_t>(kBaseline));
  const auto base_elapsed = std::chrono::steady_clock::now() - base_t0;
  svc.reset_stats();

  // Storm: ~3% of worker attempts fail (half escaping as exceptions) and
  // ~0.2% of scratch leases throw mid-algorithm. 10k requests make the
  // expected injected-fault count ≥ 300.
  ASSERT_TRUE(fp::arm_from_string(
                  "serve.worker.run=status(unavailable):p=0.015|throw:p=0.015;"
                  "pram.arena.take=throw:p=0.002")
                  .ok());
  constexpr int kStorm = 10000;
  const std::uint64_t storm_ok = hammer(svc, lists, kStorm, 4);

  // Every future completed (hammer returned); now reconcile. No request
  // is in flight and none is parked in retry backoff (a future is ready
  // only after its final attempt), so the counters are stable.
  const ServiceStats st = svc.stats();
  const fp::Counts run = fp::counts("serve.worker.run");
  const fp::Counts take = fp::counts("pram.arena.take");
  fp::disarm_all();

  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kStorm));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kStorm));
  EXPECT_EQ(st.completed, st.ok + st.cancelled + st.expired + st.failed);
  EXPECT_EQ(st.cancelled, 0u);
  EXPECT_EQ(st.expired, 0u);
  EXPECT_EQ(st.ok, storm_ok);

  // Exact bookkeeping: every injected fault failed exactly one attempt,
  // and every failed attempt was either retried or failed its future.
  const std::uint64_t injected = run.faults() + take.throws;
  EXPECT_GT(injected, static_cast<std::uint64_t>(kStorm) / 100)
      << "chaos schedule injected under 1% faults — not a real storm";
  EXPECT_EQ(injected, st.retries + st.failed);
  // Every escape (throw rules only) rebuilt a worker context.
  EXPECT_EQ(st.restarts, run.throws + take.throws);
  EXPECT_GT(st.ok, 0u);
  EXPECT_GE(st.retries, 1u);

  // Recovery: faults are gone; the same load must run clean and at a
  // throughput comparable to the baseline (a lost worker or a poisoned
  // context would show up here as a slowdown or failures).
  svc.reset_stats();
  const auto rec_t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(hammer(svc, lists, kBaseline, 4),
            static_cast<std::uint64_t>(kBaseline));
  const auto rec_elapsed = std::chrono::steady_clock::now() - rec_t0;
  const ServiceStats rec = svc.stats();
  EXPECT_EQ(rec.failed, 0u);
  EXPECT_EQ(rec.retries, 0u);
  EXPECT_LT(rec_elapsed, base_elapsed * 5 + std::chrono::milliseconds(200))
      << "post-fault throughput did not recover";
}

TEST_F(Chaos, QueuePushFaultsFailOnlyTheSubmitter) {
  std::vector<list::LinkedList> lists;
  lists.push_back(list::generators::random_list(kListSize, 7));
  Service svc({.workers = 2, .queue_capacity = 64});

  ASSERT_TRUE(fp::arm_from_string("serve.queue.push=throw:p=0.2").ok());
  constexpr int kCount = 400;
  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < kCount; ++k)
    futs.push_back(svc.submit({.list = &lists[0]}));
  std::uint64_t ok = 0, unavailable = 0;
  for (auto& f : futs) {
    const Result<MatchResult> r = f.get();
    if (r.ok())
      ++ok;
    else if (r.status().code() == StatusCode::kUnavailable)
      ++unavailable;  // the injected code — and retryable() for callers
  }
  const ServiceStats st = svc.stats();
  const fp::Counts push = fp::counts("serve.queue.push");
  fp::disarm_all();

  EXPECT_EQ(ok + unavailable, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(unavailable, push.throws);  // a push fault loses no request
  EXPECT_EQ(st.rejected, push.throws);
  EXPECT_EQ(st.submitted, ok);
  EXPECT_EQ(st.ok, ok);
}

TEST_F(Chaos, WatchdogRecoversCapacityFromStragglers) {
  std::vector<list::LinkedList> lists;
  lists.push_back(list::generators::random_list(kListSize, 11));

  ServiceOptions opt;
  opt.workers = 2;
  opt.queue_capacity = 64;
  opt.wedge_threshold = std::chrono::milliseconds(30);
  opt.supervisor_period = std::chrono::milliseconds(5);
  Service svc(opt);

  // The first two worker attempts stall for 300ms — far past the wedge
  // threshold; the watchdog must replace those workers so the remaining
  // requests don't queue behind the stragglers.
  ASSERT_TRUE(fp::arm_from_string("serve.worker.run=sleep(300):n=2").ok());
  std::vector<std::future<Result<MatchResult>>> futs;
  for (int k = 0; k < 40; ++k) futs.push_back(svc.submit({.list = &lists[0]}));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());  // stragglers finish late

  const ServiceStats st = svc.stats();
  const fp::Counts run = fp::counts("serve.worker.run");
  ASSERT_EQ(run.sleeps, 2u);
  EXPECT_GE(st.watchdog_fires, 1u) << "no wedged worker was replaced";
  EXPECT_EQ(st.workers, 2u);  // capacity restored, slot count stable
  EXPECT_EQ(st.completed, 40u);
  EXPECT_EQ(st.failed, 0u);  // sleeps delay, never fail
}

// Engine chaos, direct: storm the block engine's three failpoints and
// reconcile exactly. Status rules (IO load/spill) abort a run with the
// injected code — each failed run consumed exactly one status, since the
// first fault aborts. The eviction failpoint throws; each thrown run
// consumed exactly one throw. Surviving runs must still be bit-exact,
// and after disarming, the same warm matcher must run clean.
TEST_F(Chaos, BlockEngineFaultsReconcileExactly) {
  const std::size_t kNodes = 2048;
  const auto lst = list::generators::random_list(kNodes, 3);
  core::MatchResult flat;
  core::sequential_matching_into(lst, flat);

  engine::BlockConfig cfg;
  cfg.block_nodes = 128;  // 16 blocks…
  cfg.cache_blocks = 2;   // …through 2 frames: every run loads and spills
  engine::BlockedMatcher matcher;
  ASSERT_TRUE(matcher.init(lst, cfg).ok());

  ASSERT_TRUE(fp::arm_from_string(
                  "engine.io.load=status(unavailable):p=0.002;"
                  "engine.io.spill=status(unavailable):p=0.002;"
                  "engine.cache.evict=throw:p=0.001")
                  .ok());
  constexpr int kRuns = 200;
  std::uint64_t ok_runs = 0, status_runs = 0, thrown_runs = 0;
  core::MatchResult r;
  for (int k = 0; k < kRuns; ++k) {
    try {
      const Status s = matcher.matching_into(r);
      if (s.ok()) {
        ++ok_runs;
        EXPECT_EQ(r.in_matching, flat.in_matching);
        EXPECT_EQ(r.edges, flat.edges);
      } else {
        ++status_runs;
        EXPECT_EQ(s.code(), StatusCode::kUnavailable);
        EXPECT_TRUE(s.retryable());
      }
    } catch (const fp::InjectedFault&) {
      ++thrown_runs;
    }
  }
  const fp::Counts load = fp::counts("engine.io.load");
  const fp::Counts spill = fp::counts("engine.io.spill");
  const fp::Counts evict = fp::counts("engine.cache.evict");
  fp::disarm_all();

  EXPECT_EQ(ok_runs + status_runs + thrown_runs,
            static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(status_runs, load.statuses + spill.statuses);
  EXPECT_EQ(thrown_runs, evict.throws);
  EXPECT_GT(status_runs + thrown_runs, 0u)
      << "chaos schedule injected nothing — not a real storm";
  EXPECT_GT(ok_runs, 0u) << "every run faulted — rates too hot to verify";

  // Recovery on the same warm matcher: no residue from aborted runs.
  ASSERT_TRUE(matcher.matching_into(r).ok());
  EXPECT_EQ(r.in_matching, flat.in_matching);
}

// Engine chaos through the serve layer: blocked requests ride the same
// retry machinery as flat ones. Injected IO faults surface kUnavailable
// (retryable), so each fault fails exactly one attempt and the service's
// retry/failure counters reconcile exactly against the failpoint's.
TEST_F(Chaos, ServeRetriesBlockedRequestsThroughIoFaults) {
  const std::size_t kNodes = 16384;  // 4 blocks at the engine's default
  const auto lst = list::generators::random_list(kNodes, 5);

  ServiceOptions opt;
  opt.workers = 2;
  opt.queue_capacity = 64;
  opt.retry = {.max_attempts = 3,
               .backoff_base = std::chrono::milliseconds(1),
               .backoff_max = std::chrono::milliseconds(4)};
  Service svc(opt);

  ASSERT_TRUE(
      fp::arm_from_string("engine.io.load=status(unavailable):p=0.01;"
                          "engine.io.spill=status(unavailable):p=0.01")
          .ok());
  constexpr int kCount = 120;
  const std::size_t kBudget = 64 * 1024;  // 1 frame: constant swapping
  std::vector<std::future<Result<MatchResult>>> futs;
  futs.reserve(kCount);
  for (int k = 0; k < kCount; ++k)
    futs.push_back(svc.submit({.list = &lst,
                               .algorithm = "sequential",
                               .memory_budget_bytes = kBudget}));
  std::uint64_t ok = 0;
  for (auto& f : futs) ok += f.get().ok();

  const ServiceStats st = svc.stats();
  const fp::Counts load = fp::counts("engine.io.load");
  const fp::Counts spill = fp::counts("engine.io.spill");
  fp::disarm_all();

  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(st.ok, ok);
  const std::uint64_t injected = load.statuses + spill.statuses;
  EXPECT_GT(injected, 0u) << "no IO fault fired — storm misconfigured";
  EXPECT_EQ(injected, st.retries + st.failed);
  EXPECT_EQ(st.restarts, 0u);  // status faults never escape the worker
  EXPECT_GT(st.ok, 0u);
}

// Corruption storm: ~2% of results are damaged in the worker by the
// stabilize.corrupt.match failpoint, and the audit policy decides their
// fate — requests running under kRepair are healed in place and come
// back OK, requests overriding to kAudit fail with kDataLoss. The books
// must balance exactly: every fired injection is an audit failure, and
// every audit failure is either a repair or a kDataLoss future.
TEST_F(Chaos, CorruptionStormReconcilesRepairsAndDataLoss) {
  std::vector<list::LinkedList> lists;
  for (std::uint64_t s = 0; s < 3; ++s)
    lists.push_back(list::generators::random_list(kListSize, s));

  ServiceOptions opt;
  opt.workers = 4;
  opt.queue_capacity = 128;
  opt.audit = serve::AuditPolicy::kRepair;  // the service default…
  Service svc(opt);

  ASSERT_TRUE(
      fp::arm_from_string("stabilize.corrupt.match=status(data_loss):p=0.02")
          .ok());
  static const char* kAlgs[] = {"match1", "match2", "match3", "match4",
                                "sequential"};
  constexpr int kStorm = 10000;
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> ok{0}, data_loss{0}, other{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<Result<MatchResult>>> futs;
      futs.reserve(kStorm / kThreads);
      for (int k = 0; k < kStorm / kThreads; ++k) {
        const int j = t * (kStorm / kThreads) + k;
        Request req;
        req.list = &lists[static_cast<std::size_t>(j) % lists.size()];
        req.algorithm = kAlgs[j % 5];
        // …every third request opts out of healing: detect-only.
        if (j % 3 == 0) req.audit = serve::AuditPolicy::kAudit;
        futs.push_back(svc.submit(std::move(req)));
      }
      for (auto& f : futs) {
        const Result<MatchResult> r = f.get();
        if (r.ok())
          ok.fetch_add(1, std::memory_order_relaxed);
        else if (r.status().code() == StatusCode::kDataLoss)
          data_loss.fetch_add(1, std::memory_order_relaxed);
        else
          other.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& c : clients) c.join();

  const ServiceStats st = svc.stats();
  const fp::Counts corrupt = fp::counts("stabilize.corrupt.match");
  fp::disarm_all();

  // Every future completed, nothing surfaced an unexpected code.
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kStorm));
  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(ok.load() + data_loss.load(),
            static_cast<std::uint64_t>(kStorm));

  // Exact reconciliation. Every fire damaged a real result (the
  // injector checks applicability before evaluating the failpoint), so:
  //   injected == audits_failed == repairs + kDataLoss futures.
  const std::uint64_t injected = corrupt.statuses;
  EXPECT_GT(injected, static_cast<std::uint64_t>(kStorm) / 100)
      << "corruption storm injected under 1% — not a real storm";
  EXPECT_EQ(st.audits_failed, injected);
  EXPECT_EQ(st.repairs + data_loss.load(), injected);
  EXPECT_GT(st.repairs, 0u);
  EXPECT_GT(data_loss.load(), 0u);

  // kDataLoss is deliberately non-retryable: corrupted payloads fail
  // their future immediately (no retry amplification to skew the books).
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.failed, data_loss.load());
  EXPECT_EQ(st.ok, ok.load());
}

TEST_F(Chaos, DisarmedFailpointsPreserveZeroSteadyStateAllocations) {
  // The resilience hooks ship in the hot paths (queue, arena take, plan
  // and table builds); disabled they must not change the serve layer's
  // zero-allocation steady state.
  ASSERT_FALSE(fp::any_armed());
  std::vector<list::LinkedList> lists;
  for (std::uint64_t s = 0; s < 3; ++s)
    lists.push_back(list::generators::random_list(2000, s));

  Service svc({.workers = 2});
  // Warm every worker on every list × algorithm pair: a worker's first
  // run of an algorithm leases cold scratch. Each client sends each of
  // the 15 pairs 16 times; with 48 requests in all, one worker went
  // without some pair in a few percent of runs, more under load.
  ASSERT_EQ(hammer(svc, lists, 480, 2), 480u);
  svc.reset_stats();
  ASSERT_EQ(hammer(svc, lists, 40, 2), 40u);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.steady_allocs, 0u)
      << "disabled failpoints must not allocate in the algorithm body";
  EXPECT_EQ(st.arena_takes, st.arena_hits);
}

}  // namespace
}  // namespace llmp
