// The workloads and the inputs each one generates from its seed.
//
// Every workload is one list regime measured at every layer: the library
// kernels on the regime's lists (kernel phase), then the same lists served
// over loopback (open-loop and closed-loop phases). The regimes are
// chosen so a different layer dominates each one:
//
//   offline    each served request names a 2^16-node list by (n, seed),
//              which the server's list cache holds: a request costs what
//              llmp::run costs a library caller (kernel and verify) plus a
//              tiny frame, so core/pram dominate.
//   net_bulk   2^15-node lists shipped inline (128 KiB frames) to a
//              Service that audits and verifies: decode, LinkedList::make,
//              audit and verify dominate.
//
// Both run the same kernel phase on eight 2^15-node lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/match_result.h"
#include "list/linked_list.h"
#include "serve/service.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  std::size_t n;          ///< nodes per served request list
  std::size_t pool;       ///< distinct request lists
  bool inline_lists;      ///< successor arrays ride in the request frame
  llmp::serve::AuditPolicy audit;
  bool verify;            ///< ServiceOptions::verify
  double open_rate_rps;   ///< fixed open-loop send rate (both connections)
  std::size_t window;     ///< closed loop: requests in flight per connection
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// Nodes per kernel-phase list and in the BlockedMatcher's list: every
/// kernel's arrays fit in a core's private L2 (see README.md).
inline constexpr std::size_t kKernelNodes = std::size_t{1} << 15;
/// Kernel-phase lists, one llmp::Context each.
inline constexpr std::size_t kKernelLists = 8;

/// The algorithm every served request runs (the ROADMAP's loopback probe).
inline constexpr const char* kServedAlgorithm = "sequential";
/// Connections (and load threads) the load generator uses.
inline constexpr std::size_t kConnections = 2;
/// Service worker threads behind the server.
inline constexpr std::size_t kWorkers = 2;

/// Everything generated from the seed. The program under test only ever
/// receives these.
struct Inputs {
  std::vector<llmp::list::LinkedList> pool;  ///< served request lists
  std::vector<std::uint64_t> pool_seeds;
  /// Kernel-phase lists when the pool's size differs from kKernelNodes.
  std::vector<llmp::list::LinkedList> own_kernel_lists;
  llmp::list::LinkedList blocked;            ///< the BlockedMatcher's list
  /// Encoded kRequest payload (no header) naming pool[k], one per list.
  std::vector<std::vector<std::uint8_t>> payloads;
  /// Pool index of request id r is stream[r % stream.size()].
  std::vector<std::uint32_t> stream;

  std::uint32_t pool_index(std::uint64_t request_id) const {
    return stream[request_id % stream.size()];
  }
  /// The kernel phase's lists.
  const std::vector<llmp::list::LinkedList>& kernel_lists() const {
    return own_kernel_lists.empty() ? pool : own_kernel_lists;
  }
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// What every checked output must equal, computed once per run.
struct Oracles {
  /// Per kernel list, per kMatchers entry: edges computed on a separate
  /// Context with the fused paths off (the legacy per-element code that
  /// the Machine referee pins), plus the self-test's skew.
  std::vector<std::vector<std::size_t>> matcher_edges;
  /// Per kernel list: apps::sequential_ranking.
  std::vector<std::vector<std::uint64_t>> rank;
  llmp::core::MatchResult blocked;  ///< flat sequential on the blocked list
  /// The in-process answer (llmp::run) for each pool list.
  std::vector<std::size_t> served_edges;
  std::vector<std::vector<std::uint8_t>> served_matching;
};

Oracles compute_oracles(const Inputs& inputs, std::int64_t skew);

}  // namespace perfbench
