// llmp::serve::Service — a self-healing batch/serve layer over
// pram::Context.
//
// The repo's algorithms are single-threaded templates over an Executor;
// parallelism inside one run is the *simulated* PRAM. This layer adds the
// orthogonal axis: many independent matching requests served concurrently
// by a pool of workers, each owning one long-lived pram::Context whose
// pooled ScratchArena makes warm request execution allocation-free.
//
//   serve::Service svc({.workers = 8, .queue_capacity = 256});
//   auto fut = svc.submit({.list = &list, .algorithm = "match4"});
//   llmp::Result<core::MatchResult> r = fut.get();
//   if (r.ok()) use(r.value()); else log(r.status().to_string());
//
// Request lifecycle. submit() resolves the algorithm name against the
// AlgorithmRegistry and validates the options immediately — bad requests
// fail fast with an already-ready future (kNotFound / kInvalidArgument)
// and never occupy queue capacity. Valid requests enter a bounded MPMC
// queue; when it is full the configured OverflowPolicy either blocks the
// submitter (kBlock — backpressure) or fails the request with
// kResourceExhausted (kReject — load shedding). A worker that dequeues a
// request first honours its cancel token (kCancelled) and deadline
// (kDeadlineExceeded — expiry *in the queue* is the common case under
// overload), then runs the algorithm through its own Context into a
// per-worker persistent MatchResult, optionally checks the output once
// (an AuditPolicy audit, kDataLoss, or else core::verify,
// kFailedVerification), and fulfills the future with a copy.
//
// Fault tolerance (docs/RESILIENCE.md has the full semantics):
//
//   * Supervision — any exception escaping a request (a bug, a poison
//     input, an armed failpoint) fails *that request's* future, never the
//     worker thread: the worker records a restart and rebuilds its
//     execution context fresh before the next request.
//   * RetryPolicy — a request failing with a retryable() Status is
//     re-enqueued up to max_attempts times with exponential backoff and
//     deterministic jitter; a request that exhausts its attempts is
//     quarantined (fails with the last error, counted in stats).
//   * Watchdog — when wedge_threshold is nonzero, a supervisor thread
//     retires any worker stuck on one request past the threshold and
//     spawns a replacement so capacity recovers; the wedged thread's
//     request still completes (late) and the thread exits afterwards.
//   * Degradation — when DegradePolicy::enabled, requests for an
//     algorithm that keeps failing (or any request while the queue is
//     overloaded past a watermark) are served by `sequential` instead of
//     failing; periodic probe requests retry the original algorithm so
//     the Service returns to it once the fault clears.
//
// All of this is off by default: a default-constructed Service behaves
// exactly like the pre-resilience one (no retry, no watchdog, no
// fallback), except that worker threads no longer die silently.
//
// Shutdown is graceful by construction: shutdown() closes the queue, which
// rejects new work (kUnavailable) while workers keep draining already
// accepted requests; requests parked in retry backoff are flushed with
// their last error. It returns after every accepted future is fulfilled
// and all workers joined. The destructor calls shutdown().
//
// Threading contract. submit()/submit_batch()/stats() are safe from any
// thread. The pointed-to LinkedList must stay alive and unmodified until
// the request's future is ready (lists are immutable after construction,
// so sharing one list across many in-flight requests is fine). Workers
// never touch each other's Context; shared mutable state is the queue,
// the worker table, the retry schedule and the stats tallies.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/match_result.h"
#include "core/registry.h"
#include "core/run.h"
#include "list/linked_list.h"
#include "serve/queue.h"
#include "serve/retry_ledger.h"
#include "serve/stats.h"
#include "serve/sync_policy.h"
#include "serve/worker_slot.h"
#include "support/metrics.h"
#include "support/status.h"

namespace llmp::serve {

/// What submit() does when the request queue is full.
enum class OverflowPolicy {
  kBlock,   ///< block the submitter until a slot frees (backpressure)
  kReject,  ///< fail the request with kResourceExhausted (load shedding)
};

/// Data-healing policy: what a worker does about result corruption
/// (bit flips, injected damage — anything the integrity auditor of
/// stabilize/audit.h can detect in the produced matching).
enum class AuditPolicy {
  kOff,     ///< trust the result (today's behavior)
  kAudit,   ///< audit; corruption fails the request with kDataLoss
  kRepair,  ///< audit; corruption triggers in-place self-stabilizing
            ///< repair (stabilize/repair.h), kDataLoss only if that
            ///< cannot restore a clean maximal matching
};

inline const char* to_string(AuditPolicy p) {
  switch (p) {
    case AuditPolicy::kOff: return "off";
    case AuditPolicy::kAudit: return "audit";
    case AuditPolicy::kRepair: return "repair";
  }
  return "?";
}

inline bool audit_policy_from_string(std::string_view text, AuditPolicy* out) {
  if (text == "off") *out = AuditPolicy::kOff;
  else if (text == "audit") *out = AuditPolicy::kAudit;
  else if (text == "repair") *out = AuditPolicy::kRepair;
  else return false;
  return true;
}

/// Bounded retries for requests failing with a retryable() Status.
struct RetryPolicy {
  /// Total attempts per request (1 = no retry, the default).
  int max_attempts = 1;
  /// Backoff before attempt k+1 is base * 2^(k-1), clamped to `max`, plus
  /// a deterministic jitter in [0, 50%] derived from (request id, k) — so
  /// a retry storm spreads out identically run to run.
  std::chrono::milliseconds backoff_base{1};
  std::chrono::milliseconds backoff_max{64};
};

/// Graceful degradation: serve via `sequential` instead of failing.
struct DegradePolicy {
  bool enabled = false;
  /// Fall back for an algorithm after this many consecutive failures.
  int after_consecutive_failures = 3;
  /// While degraded, every Nth candidate request probes the original
  /// algorithm; one probe success restores it. 0 disables probing
  /// (degradation then persists until reset_stats()).
  int probe_every = 16;
  /// Also degrade any request dequeued while the queue holds at least
  /// this many requests (sustained overload). 0 disables the trigger.
  std::size_t overload_queue_depth = 0;
};

struct ServiceOptions {
  std::size_t workers = 4;
  std::size_t queue_capacity = 256;
  /// PRAM processor budget p for each worker's executor (affects the
  /// simulated time_p accounting, not host parallelism).
  std::size_t processors = 1024;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Check every result with core::verify::status (matching + maximal);
  /// failures surface as kFailedVerification on that request's future.
  /// Skipped for a request whose effective audit policy is not kOff: an
  /// audit that passed (or a repair it re-audited clean) has checked the
  /// same predicate on the same arrays, so each request is scanned once.
  bool verify = false;
  /// Service-wide data-healing default; Request::audit overrides it per
  /// request.
  AuditPolicy audit = AuditPolicy::kOff;
  RetryPolicy retry;
  DegradePolicy degrade;
  /// Watchdog: a worker busy on one request for longer than this is
  /// retired and replaced (the request still completes on the old
  /// thread). 0 (default) disables the watchdog.
  std::chrono::milliseconds wedge_threshold{0};
  /// Watchdog scan cadence (only meaningful when the watchdog is on).
  std::chrono::milliseconds supervisor_period{2};
  /// Test/trace seam: called by a worker right after it dequeues a
  /// request, with the worker index, *before* cancel/deadline checks and
  /// execution. Tests use it to hold workers and build queue states;
  /// benches use it to simulate a downstream wait. Must be thread-safe.
  std::function<void(std::size_t)> on_dequeue;
};

/// Shared cancellation flag: submitter sets it, workers poll it at
/// dequeue (and the retry scheduler when a backoff expires). Copyable and
/// cheap; one token may cover a whole batch. (The policy atomic IS a
/// std::atomic<bool>; serve/sync_policy.h explains why serve spells it
/// this way.)
using CancelToken = std::shared_ptr<StdSyncPolicy::atomic<bool>>;
inline CancelToken make_cancel_token() {
  return std::make_shared<StdSyncPolicy::atomic<bool>>(false);
}

struct Request {
  /// Borrowed; must outlive the request's future (see header comment).
  const list::LinkedList* list = nullptr;
  /// Registry name resolved at submit time ("match4", "match2-erew", …).
  std::string algorithm = "match4";
  /// When set, used verbatim instead of resolving `algorithm`.
  std::optional<core::MatchOptions> options;
  /// Absolute deadline; max() (the default) means none. A request whose
  /// deadline passes before a worker picks it up — or while it waits in
  /// retry backoff — fails kDeadlineExceeded.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Optional; null means not cancellable.
  CancelToken cancel;
  /// Per-request memory budget for the matching run's working state, in
  /// bytes. 0 (default) runs the flat in-memory path. Nonzero routes the
  /// request through the out-of-core block engine (src/engine), whose
  /// resident cache stays within the budget however large the list —
  /// blocked and flat requests run side by side on the same workers.
  /// Only `sequential` supports a budget (the engine's native
  /// algorithm); other algorithms are rejected kInvalidArgument.
  std::size_t memory_budget_bytes = 0;
  /// Per-request data-healing override; unset uses ServiceOptions::audit.
  std::optional<AuditPolicy> audit;
  /// Tenant this request is accounted to. The Service itself treats every
  /// tenant alike (quotas are the net front-end's job — net/admission.h,
  /// layered *before* submit), but the id rides the request so transports,
  /// admission control and stats all speak about the same tenant without a
  /// side channel. 0 is the anonymous/default tenant.
  std::uint32_t tenant = 0;
  /// Completion hook for transports: invoked exactly once per submit(),
  /// after this request's future becomes ready — on the submitter thread
  /// for requests refused at submit (the future is ready before submit
  /// returns), otherwise on whichever worker/supervisor thread fulfilled
  /// the promise. Must be cheap and must not call back into the Service;
  /// the net server uses it to post "response ready" onto its IO thread.
  std::function<void()> on_ready;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();  ///< calls shutdown()
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submit one request. Always returns a valid future; errors (bad
  /// request, full queue under kReject, shut-down service, an injected
  /// queue fault) arrive as a non-OK Result on it, already ready.
  std::future<Result<core::MatchResult>> submit(Request req);

  /// Submit many requests; futures are positionally matched. Under
  /// kBlock this may block between elements when the queue fills.
  std::vector<std::future<Result<core::MatchResult>>> submit_batch(
      std::vector<Request> reqs);

  /// Stop accepting work, drain every accepted request (flushing retry
  /// backoffs with their last error), join workers. Idempotent; the
  /// destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  /// Zero the counters and histogram, rebase the steady-allocation
  /// baseline (call after warmup to measure the steady state), and clear
  /// the degradation failure-tracking state.
  void reset_stats();

  const ServiceOptions& options() const { return options_; }

 private:
  /// The production sync vocabulary. Service itself always runs on std::
  /// primitives; its extracted concurrency slices (BoundedQueue,
  /// RetryLedger, WorkerSlot) are the parts the model checker re-compiles
  /// against McSyncPolicy (see docs/MODELCHECK.md).
  using Sync = StdSyncPolicy;

  struct Job {
    Request req;
    core::MatchOptions resolved;
    core::Algorithm requested;  ///< pre-degradation algorithm (tracking key)
    int attempts = 0;           ///< attempts already finished (all failed)
    std::uint64_t id = 0;       ///< submit order; seeds the retry jitter
    bool degraded = false;      ///< this attempt runs the fallback
    std::chrono::steady_clock::time_point enqueued;
    Status last_error;          ///< status that caused the latest retry
    std::promise<Result<core::MatchResult>> promise;
  };

  /// One worker thread's identity; liveness + wedge tracking lives in
  /// the WorkerSlot (the model-checked watchdog handshake). Retired
  /// handles stay in retired_ until shutdown joins them.
  struct Worker {
    Sync::thread thread;
    WorkerSlot<Sync> slot;
  };

  /// Everything a worker rebuilds on a supervision restart: the backend,
  /// the pooled Context and the persistent result scratch.
  struct WorkerContext;

  void worker_main(std::shared_ptr<Worker> self, std::size_t index);
  /// Run one dequeued job; returns true when an exception escaped (the
  /// caller then rebuilds the context — a supervision restart).
  bool process_job(WorkerContext& wc, std::size_t index, Job& job);
  /// The out-of-core path for requests carrying a memory budget.
  Status run_blocked(WorkerContext& wc, Job& job);
  /// Fallback decision for this attempt; may rewrite job.resolved.
  void maybe_degrade(Job& job);
  void note_run_outcome(const Job& job, bool run_ok);
  /// Terminal failure vs. scheduling a retry.
  void finish_or_retry(Job&& job, Status s);
  /// Supervisor-side: re-enqueue a retry whose backoff expired (or fail
  /// it if it was cancelled / its deadline passed / the queue closed).
  void dispatch_retry(Job&& job);
  void finish(Job& job, Result<core::MatchResult> result);

  void supervisor_loop();
  void watchdog_scan();
  std::shared_ptr<Worker> spawn_worker_locked(std::size_t index);

  ServiceOptions options_;
  core::MatchOptions fallback_options_;  ///< canonical `sequential`
  BoundedQueue<Job> queue_;
  Sync::atomic<bool> shut_down_{false};
  Sync::atomic<std::uint64_t> next_id_{0};

  // Worker table: active_[i] is slot i's current worker; a watchdog
  // replacement moves the old handle to retired_ and installs a fresh one
  // in place. Both vectors are guarded by workers_mu_.
  mutable Sync::mutex workers_mu_;
  std::vector<std::shared_ptr<Worker>> active_;
  std::vector<std::shared_ptr<Worker>> retired_;

  // Supervisor: retry scheduling (parked in the RetryLedger) + watchdog.
  // The thread exists only when the options can need it (retries enabled
  // or watchdog on).
  Sync::thread supervisor_;
  RetryLedger<Job, Sync> retry_ledger_;

  // Degradation tracking, indexed by core::Algorithm.
  std::array<Sync::atomic<std::uint32_t>, core::kAlgorithmCount>
      consec_failures_{};
  std::array<Sync::atomic<std::uint32_t>, core::kAlgorithmCount> probe_seq_{};

  // Stats: one tally per kServiceStatsFields entry, every access relaxed.
  // Each is an independent monotonic count and stats() is a monitoring
  // snapshot that promises no cross-counter consistency — no reader
  // orders other memory against these, so there is no invariant a
  // stronger order would protect (memory-order audit, docs/MODELCHECK.md).
  support::Tallies<kServiceStatsFields, Sync::atomic<std::uint64_t>> tallies_;
  Sync::atomic<std::uint64_t> alloc_baseline_{0};
  support::LatencyHistogram latency_;  ///< submit → future ready
};

}  // namespace llmp::serve
