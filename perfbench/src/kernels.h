// Kernel phase: the library called single-threaded, one call at a time,
// on the workload's kernel lists — five matchers and three rankers through
// the public entry points, and the out-of-core BlockedMatcher on its own
// list with a cache of 1/8 of the blocked image.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/match_result.h"
#include "engine/blocked_match.h"
#include "llmp.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Registry names of the timed matchers, in round-robin order.
inline constexpr std::array<const char*, 5> kMatchers = {
    "sequential", "match1", "match2", "match3", "match4"};
/// Metric suffixes of the rankers and the blocked matcher.
inline constexpr std::array<const char*, 3> kRankers = {
    "rank-sequential", "rank-wyllie", "rank-contraction"};

class Kernels {
 public:
  /// Set-up: a facade Context per kernel list and BlockedMatcher::init
  /// (timed as engine.init_s). Inputs and oracles are borrowed.
  Kernels(const Inputs& inputs, const Oracles& oracles,
          const std::string& spill_dir);
  Kernels(const Kernels&) = delete;
  Kernels& operator=(const Kernels&) = delete;

  bool init_ok() const { return init_ok_; }
  double init_s() const { return init_s_; }

  /// Set-up warm-up: one checked call of every kernel on every list (fills
  /// each arena, builds match3's lookup table, loads the engine's frames)
  /// and the calls-per-sample calibration.
  void warm(Ledger& ledger);

  /// Forget the samples and counts of earlier measure() calls.
  void clear();

  /// Round-robin over the nine kernels for `seconds` (at least one
  /// round), checking every output, adding to the samples and counts
  /// since clear(). Each round runs on the next CPU and,
  /// once every CPU has had it, the next list. One sample repeats a kernel
  /// for about 2 ms (once on long calls) and records its mean time per
  /// node, in wall-clock ns and in cycles: the thread's CPU time over the
  /// core clock's period, probed around the round;
  /// the metric is the mean over CPUs of each CPU's median sample. Traced,
  /// the matchers run as the unrolled steps of llmp::run, each under a span.
  void measure(double seconds, Tracer& tracer, Ledger& ledger);

  /// cycles_per_node.*, the wall-clock ns per node and the
  /// sequential-yardstick ratios; per-layer kernel metrics when traced.
  void report(Report& report, const Tracer& tracer) const;

  /// The median core clock over the rounds since clear(), in GHz.
  double clock_ghz() const { return 1 / median(clock_ns_); }

 private:
  // One checked call each; they return the call's own duration.
  Stamp run_slot(std::size_t slot, Tracer& tracer, std::uint64_t call,
                 Ledger& ledger);
  Stamp run_matcher(std::size_t k, bool traced, Tracer& tracer,
                    std::uint64_t call, Ledger& ledger);
  Stamp run_ranker(std::size_t k, Tracer& tracer, std::uint64_t call,
                   Ledger& ledger);
  Stamp run_blocked(Tracer& tracer, std::uint64_t call, Ledger& ledger);
  void check_matching(std::size_t k, const llmp::core::MatchResult& r,
                      Ledger& ledger) const;

  const llmp::list::LinkedList& list() const { return lists_[cur_]; }
  llmp::Context& ctx() { return *ctxs_[cur_]; }

  // The kernel lists, one facade Context each; cur_ is the list in use.
  const std::vector<llmp::list::LinkedList>& lists_;
  std::vector<std::unique_ptr<llmp::Context>> ctxs_;
  std::size_t cur_ = 0;
  const llmp::list::LinkedList& blocked_list_;
  const Oracles& oracles_;
  llmp::engine::BlockedMatcher blocked_;
  bool init_ok_ = false;
  double init_s_ = 0;

  // Reused result buffers (warm calls allocate nothing in the library).
  llmp::core::MatchResult match_out_;

  // Per slot (matchers, rankers, blocked): calls per sample, calibrated
  // at warm-up, and the samples per CPU, in cycles per node and in ns per
  // node; and the clock period (ns) measured in each round.
  static constexpr std::size_t kSlots = kMatchers.size() + kRankers.size() + 1;
  using PerCpu = std::vector<std::vector<double>>;
  std::array<std::size_t, kSlots> reps_{};
  std::array<PerCpu, kSlots> cycles_, ns_;
  std::vector<double> clock_ns_;
  // Rounds and calls so far: the next round's CPU and list, and the span
  // request id of the next call.
  std::size_t round_ = 0;
  std::uint64_t call_ = 0;

  /// The reported figure: the mean over CPUs of each CPU's median sample.
  static double per_node(const PerCpu& samples);

  std::uint64_t arena_takes_ = 0, arena_hits_ = 0;
  int contraction_rounds_ = 0;
  std::uint64_t contraction_work_ = 0;
  llmp::engine::EngineStats engine_stats_;
};

}  // namespace perfbench
