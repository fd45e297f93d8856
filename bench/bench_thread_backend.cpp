// Raw-speed experiment for the production thread backend: the fused
// chunk-contiguous sweeps + software prefetch + SIMD label crunching
// (pram/sweep.h and friends) against the legacy per-element dispatch, on
// the hot parallel workloads — Match1–4 and both list rankings — with the
// sequential matching and the sequential ranking as the yardstick rows:
// their "fused ms" says whether any PRAM algorithm beats the O(n) walk on
// the host (neither walk has a legacy path, so their vs_legacy is noise
// around 1).
//
// "Legacy" here is the same binary with the fast paths switched off
// (pram::tuning().fused = false): it executes the identical per-element
// step bodies the backend ran before the fused sweeps existed, so the
// ratio is a faithful before/after. Both modes run at ParallelExec's one
// inline/pooled threshold, so that switch is all they differ in. Both
// modes MUST produce bit-identical results and cost surfaces (asserted
// here with LLMP_CHECK and enforced independently by
// tests/fused_backend_test.cpp); only the wall clock may move.
//
//   --n N                list size (default 2^16; the speedup acceptance
//                        runs use --n 2097152, i.e. n >= 1M)
//   --workers W          pool worker threads (default: host cores - 1)
//   --compare-baseline   additionally print the per-phase fused-vs-legacy
//                        wall report for the matching algorithms
//   --csv / --json[=FILE]  as in every bench (see bench_common.h)
//
// Wall columns (" ms") and "vs_"-prefixed ratios are machine noise and
// ignored by scripts/bench_gate.py's exact-compare; the gate's --speedup
// mode reads vs_legacy to enforce the >= 1.5x acceptance at n >= 1M.
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/list_ranking.h"
#include "bench_common.h"
#include "core/maximal_matching.h"
#include "pram/context.h"
#include "pram/sweep.h"
#include "support/format.h"

namespace {

using namespace llmp;

struct AlgoRun {
  pram::Stats cost;
  pram::PhaseBreakdown phases;  // matching algorithms only
  std::uint64_t check = 0;      // edges / rank checksum — model quantity
  double ms = 0;                // best-of-reps wall clock
};

std::uint64_t rank_checksum(const std::vector<std::uint64_t>& rank) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t r : rank) h = (h ^ r) * 1099511628211ULL;
  return h;
}

struct Workload {
  const char* name;
  // Runs once through the context, returns cost/phases/checksum.
  AlgoRun (*run)(pram::Context<pram::ParallelExec>&,
                 const list::LinkedList&);
};

template <core::Algorithm A>
AlgoRun run_matching(pram::Context<pram::ParallelExec>& ctx,
                     const list::LinkedList& list) {
  core::MatchOptions opt;
  opt.algorithm = A;
  const core::MatchResult r = core::maximal_matching(ctx, list, opt);
  return {r.cost, r.phases, r.edges, 0};
}

AlgoRun run_wyllie(pram::Context<pram::ParallelExec>& ctx,
                   const list::LinkedList& list) {
  const apps::RankingResult r = apps::wyllie_ranking(ctx, list);
  return {r.cost, {}, rank_checksum(r.rank), 0};
}

AlgoRun run_contraction(pram::Context<pram::ParallelExec>& ctx,
                        const list::LinkedList& list) {
  const apps::RankingResult r = apps::contraction_ranking(ctx, list);
  return {r.cost, {}, rank_checksum(r.rank), 0};
}

/// Counted like the sequential matching: one visit per node, T1 = n.
AlgoRun run_sequential_ranking(pram::Context<pram::ParallelExec>&,
                               const list::LinkedList& list) {
  const std::uint64_t n = list.size();
  return {{n, n, n, 0, 0}, {}, rank_checksum(apps::sequential_ranking(list)),
          0};
}

constexpr Workload kWorkloads[] = {
    {"match1", &run_matching<core::Algorithm::kMatch1>},
    {"match2", &run_matching<core::Algorithm::kMatch2>},
    {"match3", &run_matching<core::Algorithm::kMatch3>},
    {"match4", &run_matching<core::Algorithm::kMatch4>},
    {"wyllie", &run_wyllie},
    {"contraction", &run_contraction},
    {"sequential", &run_matching<core::Algorithm::kSequential>},
    {"rank-sequential", &run_sequential_ranking},
};

/// Best-of-`reps` timed runs of one workload through a warm context.
AlgoRun timed(const Workload& w, pram::Context<pram::ParallelExec>& ctx,
              const list::LinkedList& list, int reps) {
  AlgoRun out = w.run(ctx, list);  // warmup (arena + tables + caches)
  out.ms = 0;
  for (int rep = 0; rep < reps; ++rep) {
    AlgoRun r;
    const double ms = bench::wall_ms([&] { r = w.run(ctx, list); });
    if (rep == 0 || ms < out.ms) {
      r.ms = ms;
      out = r;
    }
  }
  return out;
}

void check_same_model(const char* name, const AlgoRun& a, const AlgoRun& b) {
  LLMP_CHECK_MSG(a.check == b.check && a.cost.depth == b.cost.depth &&
                     a.cost.time_p == b.cost.time_p &&
                     a.cost.work == b.cost.work &&
                     a.phases.size() == b.phases.size(),
                 std::string("fused/legacy divergence in ") + name);
}

int run(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  // Local flags (stripped before anything else sees argv).
  std::size_t workers =
      std::thread::hardware_concurrency() > 1
          ? std::thread::hardware_concurrency() - 1
          : 0;
  bool compare_baseline = false;
  int out_argc = 1;
  for (int in = 1; in < argc; ++in) {
    if (std::strcmp(argv[in], "--compare-baseline") == 0) {
      compare_baseline = true;
    } else if (std::strcmp(argv[in], "--workers") == 0 && in + 1 < argc) {
      workers = static_cast<std::size_t>(
          std::strtoull(argv[++in], nullptr, 10));
    } else if (std::strncmp(argv[in], "--workers=", 10) == 0) {
      workers = static_cast<std::size_t>(
          std::strtoull(argv[in] + 10, nullptr, 10));
    } else {
      argv[out_argc++] = argv[in];
    }
  }
  argc = out_argc;

  const std::size_t n = args.n_or(std::size_t{1} << 16);
  const std::size_t p = args.p_or(64);
  const int reps = n >= (std::size_t{1} << 20) ? 3 : 5;
  const auto list = list::generators::random_list(n, 42);

  pram::ThreadPool pool(workers);

  std::cout << "bench_thread_backend: fused sweeps vs legacy dispatch, n="
            << n << ", workers=" << workers << "\n";

  // Per-workload fused/legacy runs. The tuning toggle is process-wide, so
  // flip it only between whole runs (never concurrently with one).
  struct Row {
    AlgoRun legacy, fused;
  };
  std::vector<Row> rows;
  const pram::SweepTuning saved = pram::tuning();
  for (const Workload& w : kWorkloads) {
    Row row;
    {
      pram::tuning().fused = false;
      pram::ParallelExec exec(p, pool);
      pram::Context ctx(exec);
      row.legacy = timed(w, ctx, list, reps);
    }
    {
      pram::tuning() = saved;
      pram::tuning().fused = true;
      pram::ParallelExec exec(p, pool);
      pram::Context ctx(exec);
      row.fused = timed(w, ctx, list, reps);
    }
    pram::tuning() = saved;
    check_same_model(w.name, row.legacy, row.fused);
    rows.push_back(std::move(row));
  }

  std::cout << "\nwall clock (best of " << reps
            << "; model counters identical across modes by construction)\n";
  fmt::Table t({"algo", "n", "depth", "time_p", "work", "check",
                "legacy ms", "fused ms", "vs_legacy"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double ratio = r.fused.ms > 0 ? r.legacy.ms / r.fused.ms : 0;
    t.add_row({kWorkloads[i].name, fmt::num(n), fmt::num(r.fused.cost.depth),
               fmt::num(r.fused.cost.time_p), fmt::num(r.fused.cost.work),
               fmt::num(r.fused.check), fmt::num(r.legacy.ms, 3),
               fmt::num(r.fused.ms, 3), fmt::num(ratio, 3)});
  }
  t.print();

  if (compare_baseline) {
    std::cout << "\n--compare-baseline: per-phase fused-vs-legacy wall "
                 "ratios (matching algorithms)\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (r.fused.phases.empty()) continue;
      std::cout << "\n" << kWorkloads[i].name << ":\n";
      fmt::Table pt({std::string(kWorkloads[i].name) + " phase", "depth",
                     "time_p", "work", "legacy ms", "fused ms",
                     "vs_legacy"});
      for (std::size_t ph = 0; ph < r.fused.phases.size(); ++ph) {
        const pram::Phase& lp = r.legacy.phases[ph];
        const pram::Phase& fp = r.fused.phases[ph];
        const double ratio =
            fp.wall_ms > 0 ? lp.wall_ms / fp.wall_ms : 0;
        pt.add_row({fp.name, fmt::num(fp.cost.depth),
                    fmt::num(fp.cost.time_p), fmt::num(fp.cost.work),
                    fmt::num(lp.wall_ms, 3), fmt::num(fp.wall_ms, 3),
                    fmt::num(ratio, 3)});
      }
      pt.print();
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
