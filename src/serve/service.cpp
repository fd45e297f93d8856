#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "core/verify.h"
#include "engine/blocked_match.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "stabilize/audit.h"
#include "stabilize/inject.h"
#include "stabilize/repair.h"
#include "support/alloc_counter.h"
#include "support/failpoint.h"

namespace llmp::serve {

namespace {

/// Ready future carrying an error — for requests refused at submit.
std::future<Result<core::MatchResult>> ready_error(Status s) {
  std::promise<Result<core::MatchResult>> p;
  std::future<Result<core::MatchResult>> f = p.get_future();
  p.set_value(Result<core::MatchResult>(std::move(s)));
  return f;
}

/// splitmix64 finalizer — the retry jitter hash. Deterministic in
/// (request id, attempt) so a replayed chaos run backs off identically.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status status_of(const support::failpoint::InjectedFault& f) {
  return Status(f.code(), std::string("injected fault: ") + f.what());
}

}  // namespace

/// Everything a worker rebuilds on a supervision restart. An exception
/// that escaped the algorithm may have left leases, pools or the result
/// scratch half-mutated, so recovery is wholesale: a fresh backend, a
/// fresh Context (empty arena — it re-warms), fresh result buffers.
struct Service::WorkerContext {
  pram::SeqExec exec;
  pram::Context<pram::SeqExec> ctx;
  core::MatchResult scratch;
  /// Arena counters already published to the Service tallies.
  std::uint64_t seen_takes = 0;
  std::uint64_t seen_hits = 0;

  explicit WorkerContext(std::size_t processors)
      : exec(processors), ctx(exec) {}
};

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity == 0 ? 1 : options_.queue_capacity) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.processors == 0) options_.processors = 1;
  if (options_.retry.max_attempts < 1) options_.retry.max_attempts = 1;
  if (options_.retry.backoff_base.count() < 1)
    options_.retry.backoff_base = std::chrono::milliseconds{1};
  if (options_.retry.backoff_max < options_.retry.backoff_base)
    options_.retry.backoff_max = options_.retry.backoff_base;
  if (options_.degrade.after_consecutive_failures < 1)
    options_.degrade.after_consecutive_failures = 1;
  if (options_.supervisor_period.count() < 1)
    options_.supervisor_period = std::chrono::milliseconds{1};
  fallback_options_.algorithm = core::Algorithm::kSequential;

  {
    std::lock_guard<Sync::mutex> lock(workers_mu_);
    active_.reserve(options_.workers);
    for (std::size_t w = 0; w < options_.workers; ++w)
      active_.push_back(spawn_worker_locked(w));
  }
  // The supervisor thread exists only when these options can need it; a
  // default-constructed Service spawns exactly its workers, as before.
  if (options_.retry.max_attempts > 1 || options_.wedge_threshold.count() > 0)
    supervisor_ = Sync::thread([this] { supervisor_loop(); }, "supervisor");
}

Service::~Service() { shutdown(); }

std::shared_ptr<Service::Worker> Service::spawn_worker_locked(
    std::size_t index) {
  auto w = std::make_shared<Worker>();
  w->thread =
      Sync::thread([this, w, index] { worker_main(w, index); }, "worker");
  return w;
}

std::future<Result<core::MatchResult>> Service::submit(Request req) {
  // Refusal at submit: the returned future is ready before submit returns,
  // and the transport completion hook (if any) fires on this thread — the
  // on_ready contract is "exactly once per submit, after readiness",
  // whichever path fulfilled the promise.
  auto reject = [this, &req](Status s) {
    tallies_.add<&ServiceStats::rejected>();
    std::future<Result<core::MatchResult>> f = ready_error(std::move(s));
    if (req.on_ready) req.on_ready();
    return f;
  };

  // Acquire pairs with shutdown()'s acq_rel exchange: a submitter that
  // observes the flag also observes the closed queue behind it. (The
  // check is advisory — queue_.closed() is the authoritative gate.)
  if (shut_down_.load(std::memory_order_acquire) || queue_.closed())
    return reject(Status::unavailable("service is shut down"));
  if (req.list == nullptr)
    return reject(Status::invalid_argument("request has no list"));

  // Resolve + validate now so a bad request fails fast and never occupies
  // queue capacity or a worker.
  core::MatchOptions resolved;
  if (req.options.has_value()) {
    resolved = *req.options;
  } else {
    Result<core::MatchOptions> r = core::resolve_algorithm(req.algorithm);
    if (!r.ok()) return reject(r.status());
    resolved = r.value();
  }
  if (Status s = core::validate_options(resolved); !s.ok())
    return reject(std::move(s));
  if (req.memory_budget_bytes > 0 &&
      resolved.algorithm != core::Algorithm::kSequential) {
    return reject(Status::invalid_argument(
        "memory_budget_bytes requires the sequential algorithm (the block "
        "engine's native path)"));
  }

  Job job;
  job.req = std::move(req);
  job.resolved = resolved;
  job.requested = resolved.algorithm;
  job.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  job.enqueued = std::chrono::steady_clock::now();
  std::future<Result<core::MatchResult>> fut = job.promise.get_future();

  // Same refusal contract once the request lives in the Job. The hook is
  // copied out first: the blocking push() consumes the Job even when it
  // fails (and an injected push fault unwinds through the moved-from
  // state), but the refusal still owes the transport its completion call.
  // The abandoned promise's future was never handed out; the ready_error
  // future is the one the caller sees.
  const std::function<void()> on_ready = job.req.on_ready;
  auto reject_job = [this, &on_ready](Status s) {
    tallies_.add<&ServiceStats::rejected>();
    std::future<Result<core::MatchResult>> f = ready_error(std::move(s));
    if (on_ready) on_ready();
    return f;
  };
  bool accepted = false;
  try {
    if (options_.overflow == OverflowPolicy::kReject) {
      accepted = queue_.try_push(job);
      if (!accepted && !queue_.closed())
        return reject_job(Status::resource_exhausted("request queue is full"));
    } else {
      accepted = queue_.push(std::move(job));
    }
  } catch (const support::failpoint::InjectedFault& f) {
    // serve.queue.push fires before the item is enqueued, so the request
    // was never accepted; fail it on the submitter, retryably.
    return reject_job(status_of(f));
  }
  if (!accepted) {  // queue closed while we waited / tried
    return reject_job(Status::unavailable("service is shut down"));
  }
  tallies_.add<&ServiceStats::submitted>();
  return fut;
}

std::vector<std::future<Result<core::MatchResult>>> Service::submit_batch(
    std::vector<Request> reqs) {
  std::vector<std::future<Result<core::MatchResult>>> futs;
  futs.reserve(reqs.size());
  for (Request& r : reqs) futs.push_back(submit(std::move(r)));
  return futs;
}

void Service::shutdown() {
  queue_.close();
  // Acq_rel: the release half publishes the close above to submitters'
  // acquire loads; the acquire half makes the second shutdown() caller
  // see the first one's progress before returning early (idempotence).
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;

  // Join every worker this Service ever spawned. The watchdog cannot
  // spawn more: its scan re-checks queue_.closed() under workers_mu_, so
  // any scan racing this close either finished before our snapshot (its
  // replacement is in active_) or sees the closed queue and stands down.
  std::vector<std::shared_ptr<Worker>> all;
  {
    std::lock_guard<Sync::mutex> lock(workers_mu_);
    all.insert(all.end(), active_.begin(), active_.end());
    all.insert(all.end(), retired_.begin(), retired_.end());
  }
  for (auto& w : all)
    if (w->thread.joinable()) w->thread.join();

  // Stop the supervisor last: while workers drained it kept dispatching
  // due retries (which fail kUnavailable at the closed queue); its exit
  // path flushes whatever is still parked in backoff.
  retry_ledger_.stop();
  if (supervisor_.joinable()) supervisor_.join();
}

void Service::finish(Job& job, Result<core::MatchResult> result) {
  latency_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - job.enqueued)
          .count()));
  tallies_.add<&ServiceStats::completed>();
  if (result.ok())
    tallies_.add<&ServiceStats::ok>();
  else
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        tallies_.add<&ServiceStats::cancelled>();
        break;
      case StatusCode::kDeadlineExceeded:
        tallies_.add<&ServiceStats::expired>();
        break;
      default:
        tallies_.add<&ServiceStats::failed>();
    }
  job.promise.set_value(std::move(result));
  // Transport completion hook, after readiness (see Request::on_ready).
  if (job.req.on_ready) job.req.on_ready();
}

void Service::finish_or_retry(Job&& job, Status s) {
  job.attempts += 1;
  const RetryPolicy& retry = options_.retry;
  const bool retryable = retry.max_attempts > 1 && s.retryable() &&
                         job.attempts < retry.max_attempts &&
                         !queue_.closed();
  if (!retryable) {
    // A retryable failure that ran out of attempts is a quarantine: the
    // service gave the request every chance it was configured to.
    if (s.retryable() && retry.max_attempts > 1 &&
        job.attempts >= retry.max_attempts)
      tallies_.add<&ServiceStats::quarantined>();
    finish(job, std::move(s));
    return;
  }

  tallies_.add<&ServiceStats::retries>();
  job.last_error = std::move(s);

  // Exponential backoff with deterministic jitter: base * 2^(k-1) clamped
  // to max, plus up to 50% more from hash(id, attempt) — identical
  // spreading run to run, no shared RNG contention.
  const int shift = std::min(job.attempts - 1, 20);
  std::chrono::milliseconds backoff = retry.backoff_base * (1LL << shift);
  if (backoff > retry.backoff_max || backoff < retry.backoff_base)
    backoff = retry.backoff_max;
  const std::int64_t half = backoff.count() / 2;
  if (half > 0) {
    const std::uint64_t h =
        mix64(job.id * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(job.attempts));
    backoff += std::chrono::milliseconds(
        static_cast<std::int64_t>(h % static_cast<std::uint64_t>(half + 1)));
  }
  const auto due = std::chrono::steady_clock::now() + backoff;
  if (retry_ledger_.park(due, std::move(job))) return;
  // Ledger already stopped (teardown race): park() refused custody, so
  // fail with the error that triggered the retry rather than dropping it.
  finish(job, job.last_error);
}

void Service::maybe_degrade(Job& job) {
  const DegradePolicy& d = options_.degrade;
  if (!d.enabled) return;
  if (job.resolved.algorithm == core::Algorithm::kSequential) return;
  const std::size_t a = static_cast<std::size_t>(job.requested);

  bool degrade = false;
  if (consec_failures_[a].load(std::memory_order_relaxed) >=
      static_cast<std::uint32_t>(d.after_consecutive_failures)) {
    // Circuit open. Every probe_every-th candidate still runs the real
    // algorithm; one probe success resets the failure count (in
    // note_run_outcome) and closes the circuit.
    if (d.probe_every > 0) {
      const std::uint32_t seq =
          probe_seq_[a].fetch_add(1, std::memory_order_relaxed);
      degrade = (seq % static_cast<std::uint32_t>(d.probe_every)) !=
                static_cast<std::uint32_t>(d.probe_every) - 1;
    } else {
      degrade = true;
    }
  }
  if (!degrade && d.overload_queue_depth > 0 &&
      queue_.size() >= d.overload_queue_depth)
    degrade = true;

  if (degrade) {
    job.resolved = fallback_options_;
    job.degraded = true;
    tallies_.add<&ServiceStats::degraded>();
  }
}

void Service::note_run_outcome(const Job& job, bool run_ok) {
  // Only non-degraded runs speak for their algorithm's health; the
  // sequential fallback succeeding says nothing about e.g. match3.
  if (!options_.degrade.enabled || job.degraded) return;
  auto& failures = consec_failures_[static_cast<std::size_t>(job.requested)];
  if (run_ok)
    failures.store(0, std::memory_order_relaxed);
  else
    failures.fetch_add(1, std::memory_order_relaxed);
}

Status Service::run_blocked(WorkerContext& wc, Job& job) {
  const engine::BlockConfig cfg = engine::BlockConfig::from_budget(
      job.req.memory_budget_bytes, sizeof(engine::NodeRec));
  engine::BlockedMatcher matcher;
  if (Status s = matcher.init(*job.req.list, cfg); !s.ok()) return s;
  Status s = matcher.matching_into(wc.scratch);
  wc.ctx.clear_phases();
  wc.ctx.note_phase("engine", engine::to_pram_stats(matcher.stats()));
  return s;
}

bool Service::process_job(WorkerContext& wc, std::size_t index, Job& job) {
  if (options_.on_dequeue) options_.on_dequeue(index);

  // Acquire on the token pairs with the canceller's store: observing the
  // flag also observes whatever state motivated the cancel.
  if (job.req.cancel && job.req.cancel->load(std::memory_order_acquire)) {
    finish(job, Status::cancelled("cancel token set before execution"));
    return false;
  }
  if (std::chrono::steady_clock::now() >= job.req.deadline) {
    finish(job, Status::deadline_exceeded("deadline passed in queue"));
    return false;
  }

  // Supervision: nothing a request does may take the worker thread down.
  // An injected fault surfaces its chosen code; any other escape — a bug,
  // a poison input — fails this request kInternal. Either way the escape
  // is reported to worker_main, which rebuilds the execution context.
  Status s;
  bool escaped = false;
  try {
    s = LLMP_FAILPOINT_STATUS("serve.worker.run");
    if (s.ok()) {
      maybe_degrade(job);
      if (job.req.memory_budget_bytes > 0) {
        // Out-of-core path: the block engine is built per request (its
        // geometry depends on the request's budget and list size), so
        // its cold setup allocations are attributed to the request
        // rather than the steady-state metric. The resident cache stays
        // within the request's budget regardless of list size.
        s = run_blocked(wc, job);
      } else {
        // Only the algorithm body counts toward the steady-state
        // allocation metric; the response copy and promise below are
        // envelope traffic.
        support::AllocScope scope;
        wc.ctx.clear_phases();  // keep the metrics sink from growing
        s = core::run_matching_into(wc.ctx, *job.req.list, job.resolved,
                                    wc.scratch);
      }
      if (s.ok()) {
        // Data healing. Corruption strikes the worker-owned result (the
        // shared list is const): the stabilize.corrupt.match failpoint
        // damages the matching deterministically from the request id,
        // and the effective audit policy decides what happens next —
        // kDataLoss, in-place repair, or under kOff only the verify
        // check (without it the corrupt payload is served, exactly like
        // an unnoticed bit flip).
        stabilize::maybe_break_matching(job.req.list->next_array(),
                                        wc.scratch.in_matching, job.id);
        const AuditPolicy policy = job.req.audit.value_or(options_.audit);
        if (policy != AuditPolicy::kOff) {
          stabilize::CorruptionReport report = stabilize::audit_matching(
              job.req.list->next_array(), wc.scratch.in_matching);
          if (!report.clean()) {
            tallies_.add<&ServiceStats::audits_failed>();
            if (policy == AuditPolicy::kRepair) {
              stabilize::repair_matching(wc.ctx, job.req.list->next_array(),
                                         wc.scratch.in_matching);
              report = stabilize::audit_matching(job.req.list->next_array(),
                                                 wc.scratch.in_matching);
              if (report.clean()) {
                tallies_.add<&ServiceStats::repairs>();
                wc.scratch.edges =
                    core::verify::matching_size(wc.scratch.in_matching);
              } else {
                s = report.to_status();  // kDataLoss — repair couldn't heal
              }
            } else {
              s = report.to_status();  // kDataLoss
            }
          }
        } else if (options_.verify) {
          // Only without an audit: one that passed has just checked this
          // predicate on these same arrays.
          s = core::verify::status(*job.req.list, wc.scratch.in_matching);
        }
      }
      note_run_outcome(job, s.ok());
    }
  } catch (const support::failpoint::InjectedFault& f) {
    s = status_of(f);
    escaped = true;
    note_run_outcome(job, false);
  } catch (const std::exception& e) {
    s = Status::internal(std::string("worker caught exception: ") + e.what());
    escaped = true;
    note_run_outcome(job, false);
  } catch (...) {
    s = Status::internal("worker caught unknown exception");
    escaped = true;
    note_run_outcome(job, false);
  }

  // Publish the arena counters so stats() never touches worker stack
  // state (the arena lives on this thread's stack, not in the Service).
  const std::uint64_t takes = wc.ctx.arena().takes();
  const std::uint64_t hits = wc.ctx.arena().hits();
  tallies_.add<&ServiceStats::arena_takes>(takes - wc.seen_takes);
  tallies_.add<&ServiceStats::arena_hits>(hits - wc.seen_hits);
  wc.seen_takes = takes;
  wc.seen_hits = hits;

  // Count the restart BEFORE fulfilling the future: reconciliation
  // readers (chaos_test) sample the counters as soon as every future is
  // ready, so an increment trailing finish() would be a lost update in
  // their eyes. worker_main still does the actual context rebuild.
  if (escaped) tallies_.add<&ServiceStats::restarts>();

  if (s.ok())
    finish(job, Result<core::MatchResult>(wc.scratch));  // copy out
  else
    finish_or_retry(std::move(job), std::move(s));
  return escaped;
}

void Service::worker_main(std::shared_ptr<Worker> self, std::size_t index) {
  // One long-lived execution context per worker: the pooled arena turns
  // every warm request into a zero-allocation run, and the persistent
  // MatchResult keeps the result buffers between requests too.
  auto wc = std::make_unique<WorkerContext>(options_.processors);

  for (;;) {
    std::optional<Job> popped;
    try {
      popped = queue_.pop();
    } catch (...) {
      // serve.queue.pop fires before any item is taken, so no request is
      // lost; treat it like any other escape and restart fresh.
      tallies_.add<&ServiceStats::restarts>();
      wc = std::make_unique<WorkerContext>(options_.processors);
      continue;
    }
    if (!popped) break;  // closed and drained

    self->slot.enter(now_us());
    const bool escaped = process_job(*wc, index, *popped);
    self->slot.leave();

    // The restart itself was already counted in process_job (before the
    // future was fulfilled); here only the context is rebuilt.
    if (escaped) wc = std::make_unique<WorkerContext>(options_.processors);
    // A watchdog-retired worker finishes the request it was wedged on,
    // then exits; its replacement already owns the slot.
    if (self->slot.retired()) break;
  }
}

void Service::supervisor_loop() {
  const bool watchdog = options_.wedge_threshold.count() > 0;
  while (!retry_ledger_.stopped()) {
    // Sleep until the earliest due retry, the next watchdog scan, or a
    // ledger event (new retry parked / stop requested).
    auto cap = std::chrono::steady_clock::time_point::max();
    if (watchdog)
      cap = std::chrono::steady_clock::now() + options_.supervisor_period;
    retry_ledger_.wait_due(cap);
    if (retry_ledger_.stopped()) break;

    // Dispatch due retries with no ledger lock held: the queue push and
    // the promise fulfillment in finish() must not block parkers.
    for (Job& job : retry_ledger_.take_due(std::chrono::steady_clock::now()))
      dispatch_retry(std::move(job));
    if (watchdog) watchdog_scan();
  }

  // Stop: flush everything still parked in backoff — shutdown() promises
  // every accepted future is ready when it returns.
  for (Job& job : retry_ledger_.drain()) {
    // Acquire on the token pairs with the canceller's store: observing
    // the flag also observes whatever state motivated the cancel.
    if (job.req.cancel && job.req.cancel->load(std::memory_order_acquire))
      finish(job, Status::cancelled("cancelled during retry backoff"));
    else if (std::chrono::steady_clock::now() >= job.req.deadline)
      finish(job,
             Status::deadline_exceeded("deadline passed during retry backoff"));
    else
      finish(job, job.last_error.ok()
                      ? Status::unavailable("service shut down during retry")
                      : job.last_error);
  }
}

void Service::dispatch_retry(Job&& job) {
  // Acquire: same token pairing as process_job's pre-execution check.
  if (job.req.cancel && job.req.cancel->load(std::memory_order_acquire)) {
    finish(job, Status::cancelled("cancelled during retry backoff"));
    return;
  }
  if (std::chrono::steady_clock::now() >= job.req.deadline) {
    finish(job,
           Status::deadline_exceeded("deadline passed during retry backoff"));
    return;
  }
  bool pushed = false;
  try {
    pushed = queue_.try_push(job);
  } catch (const support::failpoint::InjectedFault& f) {
    finish(job, status_of(f));
    return;
  }
  if (pushed) return;
  if (queue_.closed()) {
    // Shutting down: the retry can never run; surface the error that
    // caused it.
    finish(job, job.last_error.ok()
                    ? Status::unavailable("service shut down during retry")
                    : job.last_error);
    return;
  }
  // Queue momentarily full — park again briefly rather than blocking the
  // supervisor (it also owes the watchdog its scans).
  const auto due =
      std::chrono::steady_clock::now() + options_.retry.backoff_base;
  if (retry_ledger_.park(due, std::move(job))) return;
  finish(job, job.last_error.ok()
                  ? Status::unavailable("service shut down during retry")
                  : job.last_error);
}

void Service::watchdog_scan() {
  const std::int64_t threshold_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          options_.wedge_threshold)
          .count();
  const std::int64_t now = now_us();
  std::lock_guard<Sync::mutex> lock(workers_mu_);
  // During shutdown the drain IS slow work finishing — never retire then
  // (and never spawn a worker shutdown() could miss; see shutdown()).
  if (queue_.closed()) return;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    std::shared_ptr<Worker>& w = active_[i];
    if (!w->slot.wedged(now, threshold_us)) continue;
    // Wedged: C++ threads can't be killed, so replace instead. The old
    // thread finishes its request (late), sees retired, and exits; it is
    // joined at shutdown.
    w->slot.retire();
    tallies_.add<&ServiceStats::watchdog_fires>();
    retired_.push_back(std::move(w));
    active_[i] = spawn_worker_locked(i);
  }
}

ServiceStats Service::stats() const {
  ServiceStats s;
  tallies_.load_into(s);
  s.queue_depth = queue_.size();
  {
    std::lock_guard<Sync::mutex> lock(workers_mu_);
    s.workers = active_.size();
  }
  s.p50_latency_us = latency_.percentile(0.50);
  s.p99_latency_us = latency_.percentile(0.99);
  const std::uint64_t allocs = support::scoped_allocs();
  const std::uint64_t base = alloc_baseline_.load(std::memory_order_relaxed);
  s.steady_allocs = allocs >= base ? allocs - base : 0;
  return s;
}

void Service::reset_stats() {
  tallies_.reset();
  latency_.reset();
  alloc_baseline_.store(support::scoped_allocs(), std::memory_order_relaxed);
  for (auto& c : consec_failures_) c.store(0, std::memory_order_relaxed);
  for (auto& p : probe_seq_) p.store(0, std::memory_order_relaxed);
}

}  // namespace llmp::serve
