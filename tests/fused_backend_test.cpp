// Differential suite for the thread backend's raw-speed fast paths.
//
// The fused sweeps, software prefetch, SIMD label crunching, and the
// adaptive parallel threshold are pure wall-clock optimizations: they must
// never move a result bit or a cost-surface counter. This file enforces
// that by running EVERY registered algorithm
//
//   * on pram::Machine — the tracked PRAM referee, which has no sweep and
//     therefore always executes the legacy per-element step bodies — and
//   * on pram::ParallelExec with fusion on and with it switched off
//     (legacy mode),
//
// across sizes straddling the inline/pooled threshold, and asserting
// bit-identical matchings, edge counts, auxiliary counters, cost surfaces
// (depth/time_p/work — reads/writes are tracked by the Machine only), and
// phase breakdowns (names and deltas; wall_ms is machine noise and is
// exempt). The SIMD byte kernel's scalar and AVX2 bodies are each checked
// on every input in simd_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/register.h"
#include "core/registry.h"
#include "list/generators.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/sweep.h"
#include "pram/thread_pool.h"

namespace llmp {
namespace {

// The trait must expose sweep on the fast executors and their Contexts,
// and hide it from the referee — otherwise the Machine would silently
// skip its tracked-memory audit on fused code.
static_assert(pram::has_sweep_v<pram::SeqExec>);
static_assert(pram::has_sweep_v<pram::ParallelExec>);
static_assert(pram::has_sweep_v<pram::Context<pram::SeqExec>>);
static_assert(pram::has_sweep_v<pram::Context<pram::ParallelExec>>);
static_assert(!pram::has_sweep_v<pram::Machine>);
static_assert(!pram::has_sweep_v<pram::Context<pram::Machine>>);

/// Sets the process-wide fused switch; restores the previous tuning on
/// destruction.
class TuningGuard {
 public:
  explicit TuningGuard(bool fused) : saved_(pram::tuning()) {
    pram::tuning().fused = fused;
  }
  ~TuningGuard() { pram::tuning() = saved_; }

 private:
  pram::SweepTuning saved_;
};

/// One run of a registry entry: the matching result (empty for schedule
/// entries), the context's cost delta, and its phase breakdown.
struct BackendRun {
  core::MatchResult result;
  bool has_result = false;
  pram::Stats cost;
  pram::PhaseBreakdown phases;
};

template <class Exec>
BackendRun run_entry(Exec& exec, const core::AlgorithmEntry& entry,
              const list::LinkedList& list) {
  pram::Context ctx(exec);
  BackendRun run;
  const pram::Stats start = ctx.stats();
  if (entry.matching) {
    core::AlgorithmRegistry::instance().match_dispatcher().run(
        ctx, list, entry.canonical, run.result);
    run.has_result = true;
  } else {
    entry.runner->run(ctx, list);
  }
  run.cost = ctx.stats() - start;
  run.phases = ctx.phases();
  return run;
}

void expect_same_model(const BackendRun& a, const BackendRun& b, const std::string& what) {
  // depth/time_p/work only: reads/writes are Machine-tracked and stay 0 on
  // the fast executors.
  EXPECT_EQ(a.cost.depth, b.cost.depth) << what;
  EXPECT_EQ(a.cost.time_p, b.cost.time_p) << what;
  EXPECT_EQ(a.cost.work, b.cost.work) << what;
  ASSERT_EQ(a.phases.size(), b.phases.size()) << what;
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const std::string tag = what + " phase '" + a.phases[i].name + "'";
    EXPECT_EQ(a.phases[i].name, b.phases[i].name) << tag;
    EXPECT_EQ(a.phases[i].cost.depth, b.phases[i].cost.depth) << tag;
    EXPECT_EQ(a.phases[i].cost.time_p, b.phases[i].cost.time_p) << tag;
    EXPECT_EQ(a.phases[i].cost.work, b.phases[i].cost.work) << tag;
  }
  ASSERT_EQ(a.has_result, b.has_result) << what;
  if (!a.has_result) return;
  const core::MatchResult& x = a.result;
  const core::MatchResult& y = b.result;
  EXPECT_EQ(x.in_matching, y.in_matching) << what;
  EXPECT_EQ(x.edges, y.edges) << what;
  EXPECT_EQ(x.relabel_rounds, y.relabel_rounds) << what;
  EXPECT_EQ(x.gather_rounds, y.gather_rounds) << what;
  EXPECT_EQ(x.table_cells, y.table_cells) << what;
  EXPECT_EQ(x.partition_sets, y.partition_sets) << what;
  EXPECT_EQ(x.cut.cuts, y.cut.cuts) << what;
  EXPECT_EQ(x.cut.max_run, y.cut.max_run) << what;
  EXPECT_EQ(x.cost.depth, y.cost.depth) << what;
  EXPECT_EQ(x.cost.time_p, y.cost.time_p) << what;
  EXPECT_EQ(x.cost.work, y.cost.work) << what;
}

std::vector<const core::AlgorithmEntry*> all_entries() {
  apps::register_algorithms();
  return core::AlgorithmRegistry::instance().entries();
}

TEST(FusedBackend, EveryAlgorithmBitIdenticalAcrossFastModes) {
  // Pin the inline/pooled seam at 64 so small lists straddle it; sizes
  // below, at, and above exercise both dispatch shapes of every sweep.
  constexpr std::size_t kThreshold = 64;
  pram::ThreadPool pool(2);
  for (std::size_t n : {5u, 63u, 64u, 65u, 257u, 1000u}) {
    const auto list = list::generators::random_list(n, 17 + n);
    for (const core::AlgorithmEntry* entry : all_entries()) {
      BackendRun reference;
      {
        TuningGuard guard(/*fused=*/false);
        pram::ParallelExec exec(64, pool, kThreshold);
        reference = run_entry(exec, *entry, list);
      }
      TuningGuard guard(/*fused=*/true);
      pram::ParallelExec exec(64, pool, kThreshold);
      const BackendRun run = run_entry(exec, *entry, list);
      expect_same_model(reference, run,
                        entry->name + " n=" + std::to_string(n) + " fused");
    }
  }
}

TEST(FusedBackend, FusedThreadBackendMatchesMachineReferee) {
  // The tracked referee executes the legacy per-element bodies (it has no
  // sweep by construction — see the static_asserts above), so agreement
  // here means the fast paths reproduce the audited PRAM semantics.
  pram::ThreadPool pool(2);
  const std::size_t n = 129;
  const auto list = list::generators::random_list(n, 7);
  for (const core::AlgorithmEntry* entry : all_entries()) {
    pram::Machine machine(entry->declared, n,
                          pram::Machine::OnViolation::kRecord);
    const BackendRun referee = run_entry(machine, *entry, list);
    TuningGuard guard(/*fused=*/true);
    pram::ParallelExec exec(n, pool, /*threshold=*/32);
    const BackendRun fast = run_entry(exec, *entry, list);
    // The referee tracks reads/writes; zero them out of the comparison by
    // comparing the shared counters only (expect_same_model does exactly
    // that).
    expect_same_model(referee, fast, entry->name + " vs referee");
  }
}

TEST(FusedBackend, ThresholdSeamIsResultInvariant) {
  // Results must not depend on the threshold: run match4 and the
  // randomized baseline right at the default seam and at extreme pins
  // (always-inline vs always-pooled).
  pram::ThreadPool pool(2);
  const std::size_t t = pram::ParallelExec::kDefaultParallelThreshold;
  for (const char* name : {"match4", "randomized"}) {
    const core::AlgorithmEntry* entry =
        core::AlgorithmRegistry::instance().find(name);
    ASSERT_NE(entry, nullptr);
    for (std::size_t n : {t - 1, t, t + 1}) {
      const auto list = list::generators::random_list(n, 23);
      TuningGuard guard(/*fused=*/true);
      pram::ParallelExec inline_only(64, pool, pram::kNeverParallel);
      pram::ParallelExec pooled_always(64, pool, 1);
      pram::ParallelExec seam(64, pool);
      const BackendRun a = run_entry(inline_only, *entry, list);
      const BackendRun b = run_entry(pooled_always, *entry, list);
      const BackendRun c = run_entry(seam, *entry, list);
      expect_same_model(a, b,
                        std::string(name) + " inline-vs-pooled n=" +
                            std::to_string(n));
      expect_same_model(a, c,
                        std::string(name) + " inline-vs-seam n=" +
                            std::to_string(n));
    }
  }
}

}  // namespace
}  // namespace llmp
