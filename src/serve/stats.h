// serve::ServiceStats — the Service's stats snapshot and its one schema.
//
// kServiceStatsFields lists every field once. Service::stats() and
// reset_stats(), the kStats wire section (net/wire.h) and the printers
// (tools/llmp_serve, examples/llmp_cli) all loop over it. This header
// depends on support/ only, so the wire codec can include it without the
// Service.
#pragma once

#include <array>
#include <cstdint>

#include "support/metrics.h"

namespace llmp::serve {

/// One snapshot of service counters (monotonic between reset_stats()
/// calls) and the gauges stats() fills in at snapshot time.
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< accepted into the queue
  std::uint64_t completed = 0;  ///< futures fulfilled
  std::uint64_t ok = 0;         ///< … with an OK result
  std::uint64_t rejected = 0;   ///< refused at submit (full/closed/invalid)
  std::uint64_t cancelled = 0;  ///< failed kCancelled
  std::uint64_t expired = 0;    ///< failed kDeadlineExceeded
  std::uint64_t failed = 0;     ///< completed with any other non-OK status
  // Resilience counters (completed == ok + cancelled + expired + failed
  // always; the five below classify *how* the service got there).
  std::uint64_t restarts = 0;       ///< worker contexts rebuilt after escape
  std::uint64_t retries = 0;        ///< retry attempts scheduled
  std::uint64_t quarantined = 0;    ///< requests failed after max_attempts
  std::uint64_t degraded = 0;       ///< requests served via `sequential`
  std::uint64_t watchdog_fires = 0; ///< wedged workers retired + replaced
  // Data-healing counters (AuditPolicy; stabilize/audit.h). Every audit
  // that found corruption is counted in audits_failed; under kRepair the
  // successfully healed subset lands in repairs too, the rest (plus all
  // kAudit detections) fail their request kDataLoss.
  std::uint64_t audits_failed = 0;  ///< result audits that found corruption
  std::uint64_t repairs = 0;        ///< corrupted results healed in place
  std::uint64_t arena_takes = 0;    ///< scratch leases across all workers
  std::uint64_t arena_hits = 0;     ///< … satisfied from the pool
  // Gauges, filled in by stats().
  std::uint64_t queue_depth = 0;    ///< requests queued right now
  std::uint64_t workers = 0;        ///< live (non-retired) workers
  /// End-to-end latency (submit → future ready) percentiles from the
  /// log2 support::LatencyHistogram: each is the upper bound of the
  /// bucket holding it, exact to within 2×.
  std::uint64_t p50_latency_us = 0;
  std::uint64_t p99_latency_us = 0;
  /// Heap allocations inside worker algorithm-execution regions since the
  /// last reset_stats() — the serve-layer steady-state allocation metric.
  /// Zero once every worker's arena is warm (in instrumented binaries;
  /// see support/alloc_counter.h).
  std::uint64_t steady_allocs = 0;
};

/// Every ServiceStats field, once, in wire order.
inline constexpr auto kServiceStatsFields =
    std::to_array<support::StatField<ServiceStats>>({
        {"submitted", &ServiceStats::submitted},
        {"completed", &ServiceStats::completed},
        {"ok", &ServiceStats::ok},
        {"rejected", &ServiceStats::rejected},
        {"cancelled", &ServiceStats::cancelled},
        {"expired", &ServiceStats::expired},
        {"failed", &ServiceStats::failed},
        {"restarts", &ServiceStats::restarts},
        {"retries", &ServiceStats::retries},
        {"quarantined", &ServiceStats::quarantined},
        {"degraded", &ServiceStats::degraded},
        {"watchdog_fires", &ServiceStats::watchdog_fires},
        {"audits_failed", &ServiceStats::audits_failed},
        {"repairs", &ServiceStats::repairs},
        {"arena_takes", &ServiceStats::arena_takes},
        {"arena_hits", &ServiceStats::arena_hits},
        {"queue_depth", &ServiceStats::queue_depth},
        {"workers", &ServiceStats::workers},
        {"p50_latency_us", &ServiceStats::p50_latency_us},
        {"p99_latency_us", &ServiceStats::p99_latency_us},
        {"steady_allocs", &ServiceStats::steady_allocs},
    });

}  // namespace llmp::serve
