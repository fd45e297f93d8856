// Metrics primitives every layer's stats share: the stats-table schema,
// the relaxed tallies indexed by it, and the one latency histogram.
//
// A layer declares its snapshot struct and, beside it, one constexpr
// table of StatField entries that lists every field once (serve/stats.h,
// net/stats.h). Snapshots, resets, the wire codec (net/wire.h) and the
// printers loop over the table, so a new counter costs three lines: its
// field, its table entry and its increment
// (`tallies.add<&ServiceStats::repairs>()`).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace llmp::support {

/// One u64 field of a stats snapshot struct: the name every printer shows
/// and the member it reads.
template <class S>
struct StatField {
  using Stats = S;
  const char* name;
  std::uint64_t S::*member;
};

/// One tally per entry of a stats table, in table order. Every access is
/// relaxed: each tally is an independent monotonic count, and
/// load_into() is a monitoring snapshot that promises no ordering across
/// counters. `Atomic` lets the serve layer spell its atomics through its
/// sync policy (serve/sync_policy.h).
template <const auto& Table, class Atomic = std::atomic<std::uint64_t>>
class Tallies {
 public:
  using Stats =
      typename std::remove_cvref_t<decltype(Table)>::value_type::Stats;

  /// Add `n` to `Member`'s tally; a member missing from the table does
  /// not compile.
  template <std::uint64_t Stats::*Member>
  void add(std::uint64_t n = 1) {
    constexpr std::size_t i = index_of(Member);
    static_assert(i < Table.size(), "field missing from its stats table");
    tally_[i].fetch_add(n, std::memory_order_relaxed);
  }

  /// Copy every tally into its field of `out`.
  void load_into(Stats& out) const {
    for (std::size_t i = 0; i < Table.size(); ++i)
      out.*Table[i].member = tally_[i].load(std::memory_order_relaxed);
  }

  void reset() {
    for (Atomic& t : tally_) t.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t index_of(std::uint64_t Stats::*member) {
    std::size_t i = 0;
    while (i < Table.size() && Table[i].member != member) ++i;
    return i;
  }

  std::array<Atomic, Table.size()> tally_{};
};

/// The one log2 latency histogram. Bucket 0 counts samples of at most
/// 1 µs and bucket i > 0 those in (2^(i-1), 2^i] µs; the top bucket also
/// takes everything above its range. A percentile reports the upper bound
/// of the bucket holding it, so it is exact to within 2× and an exact
/// power of two reports itself. The buckets are relaxed atomics: record()
/// is safe from any thread, and percentile() and reset() are monitoring
/// operations with no ordering across buckets. Nothing allocates.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t us) {
    const std::size_t b =
        us <= 1 ? 0
                : std::min<std::size_t>(std::bit_width(us - 1), kBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
  }

  /// The q-quantile (q clamped to [0, 1]) of the samples recorded since
  /// the last reset(), as its bucket's upper bound; 0 with no samples.
  std::uint64_t percentile(double q) const {
    std::array<std::uint64_t, kBuckets> h{};
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBuckets; ++i)
      total += h[i] = buckets_[i].load(std::memory_order_relaxed);
    if (total == 0) return 0;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(std::clamp(q, 0.0, 1.0) *
                                   static_cast<double>(total - 1)) +
        1;
    std::size_t i = 0;
    for (std::uint64_t seen = h[0]; seen < rank && i + 1 < kBuckets;)
      seen += h[++i];
    return std::uint64_t{1} << i;
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

}  // namespace llmp::support
