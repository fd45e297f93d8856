// Multi-tenant admission control for the network front-end.
//
// Sits in FRONT of serve::Service's queue backpressure: a frame that
// fails admission is rejected kResourceExhausted before it ever touches
// the queue, so one tenant flooding the socket cannot convert its excess
// into queue slots that starve everyone else. Two independent limits per
// tenant, both optional (0 = unlimited):
//
//   * rate      — a token bucket (tokens_per_sec sustained, burst cap).
//                 Refill is computed from the caller-supplied clock, so
//                 tests drive it deterministically.
//   * in-flight — a cap on requests admitted but not yet completed,
//                 bounding the queue share a tenant can hold regardless
//                 of its arrival rate.
//
// Per-tenant counters (admitted / rejected by which limit / completed /
// in-flight) are the reconciliation ledger: the chaos test balances them
// against injected faults, and the stats frame ships them to clients.
// They are net::TenantStats (net/stats.h), not serve::ServiceStats —
// tenancy is a property of the front door; the Service itself treats all
// work alike.
//
// Thread-safety: one mutex. The server calls from its IO thread only,
// but the bench's load generators snapshot stats concurrently.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/stats.h"
#include "support/status.h"

namespace llmp::net {

/// Limits for one tenant. Zero-initialised means "no limits".
struct TenantQuota {
  double tokens_per_sec = 0;      ///< sustained request rate; 0 = unlimited
  double burst = 0;               ///< bucket depth; defaults to tokens_per_sec
  std::uint32_t max_in_flight = 0;  ///< admitted-not-completed cap; 0 = none
};

struct AdmissionOptions {
  TenantQuota default_quota;                  ///< tenants not listed below
  std::map<std::uint32_t, TenantQuota> quotas;  ///< per-tenant overrides
};

class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  explicit AdmissionController(AdmissionOptions options = {})
      : options_(std::move(options)) {}

  /// Admit one request for `tenant`, or explain the rejection. The clock
  /// parameter exists so tests can replay exact schedules.
  Status admit(std::uint32_t tenant, Clock::time_point now = Clock::now()) {
    std::lock_guard<std::mutex> lock(mu_);
    State& st = state(tenant, now);
    if (st.quota.max_in_flight != 0 &&
        st.stats.in_flight >= st.quota.max_in_flight) {
      st.stats.rejected_in_flight++;
      return Status::resource_exhausted(
          "tenant " + std::to_string(tenant) + " at max in-flight (" +
          std::to_string(st.quota.max_in_flight) + ")");
    }
    if (st.quota.tokens_per_sec > 0) {
      refill(st, now);
      if (st.tokens < 1.0) {
        st.stats.rejected_quota++;
        return Status::resource_exhausted(
            "tenant " + std::to_string(tenant) + " over rate quota (" +
            std::to_string(st.quota.tokens_per_sec) + "/s)");
      }
      st.tokens -= 1.0;
    }
    st.stats.admitted++;
    st.stats.in_flight++;
    return {};
  }

  /// Balance an earlier successful admit(); call exactly once per
  /// admitted request, however it ends (response, error, disconnect).
  void complete(std::uint32_t tenant) {
    std::lock_guard<std::mutex> lock(mu_);
    State& st = state(tenant, Clock::now());
    st.stats.completed++;
    if (st.stats.in_flight > 0) st.stats.in_flight--;
  }

  /// Every tenant seen so far, in tenant-id order.
  std::vector<TenantStats> stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TenantStats> out;
    out.reserve(states_.size());
    for (const auto& [id, st] : states_) out.push_back(st.stats);
    return out;
  }

 private:
  struct State {
    TenantQuota quota;
    double tokens = 0;
    Clock::time_point last_refill{};
    TenantStats stats;
  };

  State& state(std::uint32_t tenant, Clock::time_point now) {
    auto it = states_.find(tenant);
    if (it == states_.end()) {
      State st;
      auto q = options_.quotas.find(tenant);
      st.quota = q != options_.quotas.end() ? q->second
                                            : options_.default_quota;
      if (st.quota.burst <= 0) st.quota.burst = st.quota.tokens_per_sec;
      st.tokens = st.quota.burst;  // a fresh tenant starts with a full bucket
      st.last_refill = now;
      st.stats.tenant = tenant;
      it = states_.emplace(tenant, std::move(st)).first;
    }
    return it->second;
  }

  static void refill(State& st, Clock::time_point now) {
    const std::chrono::duration<double> dt = now - st.last_refill;
    if (dt.count() <= 0) return;
    st.tokens += dt.count() * st.quota.tokens_per_sec;
    if (st.tokens > st.quota.burst) st.tokens = st.quota.burst;
    st.last_refill = now;
  }

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::map<std::uint32_t, State> states_;
};

}  // namespace llmp::net
