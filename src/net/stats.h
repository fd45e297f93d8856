// net::ServerStats and net::TenantStats — the front door's stats
// snapshots and their one schema each.
//
// kServerStatsFields and kTenantStatsFields list every u64 field once;
// Server::stats(), the kStats wire sections (net/wire.h) and the printers
// loop over them. This header depends on support/ only, so the wire codec
// can include it without the Server or the Service.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/metrics.h"

namespace llmp::net {

/// Counters for one tenant, snapshot by AdmissionController::stats().
struct TenantStats {
  std::uint64_t tenant = 0;  ///< the tenant id (a u32 on every frame)
  std::uint64_t admitted = 0;
  std::uint64_t rejected_quota = 0;      ///< token bucket empty
  std::uint64_t rejected_in_flight = 0;  ///< max_in_flight hit
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;  ///< admitted − completed, right now
};

/// Every TenantStats field, once, in wire order.
inline constexpr auto kTenantStatsFields =
    std::to_array<support::StatField<TenantStats>>({
        {"tenant", &TenantStats::tenant},
        {"admitted", &TenantStats::admitted},
        {"rejected_quota", &TenantStats::rejected_quota},
        {"rejected_in_flight", &TenantStats::rejected_in_flight},
        {"completed", &TenantStats::completed},
        {"in_flight", &TenantStats::in_flight},
    });

/// Monotonic front-door counters, plus the tenant admission ledger.
struct ServerStats {
  std::uint64_t accepted = 0;         ///< connections accepted
  std::uint64_t disconnects = 0;      ///< connections closed, any cause
  std::uint64_t protocol_errors = 0;  ///< malformed headers or payloads
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t accept_faults = 0;  ///< net.conn.accept injections
  std::uint64_t read_faults = 0;    ///< net.conn.read injections
  std::uint64_t write_faults = 0;   ///< net.conn.write injections
  std::vector<TenantStats> tenants;  ///< in tenant-id order
};

/// Every u64 ServerStats field, once, in wire order.
inline constexpr auto kServerStatsFields =
    std::to_array<support::StatField<ServerStats>>({
        {"accepted", &ServerStats::accepted},
        {"disconnects", &ServerStats::disconnects},
        {"protocol_errors", &ServerStats::protocol_errors},
        {"frames_in", &ServerStats::frames_in},
        {"frames_out", &ServerStats::frames_out},
        {"bytes_in", &ServerStats::bytes_in},
        {"bytes_out", &ServerStats::bytes_out},
        {"accept_faults", &ServerStats::accept_faults},
        {"read_faults", &ServerStats::read_faults},
        {"write_faults", &ServerStats::write_faults},
    });

}  // namespace llmp::net
