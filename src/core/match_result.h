// Result type shared by all matching algorithms.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cut.h"
#include "pram/context.h"
#include "pram/stats.h"
#include "pram/sweep.h"
#include "support/types.h"

namespace llmp::core {

struct MatchResult {
  /// in_matching[v] == 1 ⇔ pointer <v, suc(v)> is in the matching.
  std::vector<std::uint8_t> in_matching;
  std::size_t edges = 0;  ///< number of chosen pointers

  pram::Stats cost;              ///< total PRAM cost of the run
  pram::PhaseBreakdown phases;   ///< per-phase deltas (see stats.h)

  int relabel_rounds = 0;        ///< deterministic-coin-tossing rounds used
  int gather_rounds = 0;         ///< Match3/4 concatenation-jump rounds
  std::size_t table_cells = 0;   ///< Match3/4 lookup-table size (0 = none)
  std::size_t partition_sets = 0;  ///< matching sets before combining
  CutStats cut;                  ///< step-3/4 audit numbers

  /// Reset for reuse by the *_into entry points: clears counters and the
  /// phase list while keeping vector capacity, so warm calls through a
  /// pram::Context allocate nothing.
  void reset() {
    edges = 0;
    cost = {};
    phases.clear();
    relabel_rounds = 0;
    gather_rounds = 0;
    table_cells = 0;
    partition_sets = 0;
    cut = {};
  }
};

/// The phase clock of Match1–4. Construction starts a run: it resets `r`
/// and marks the executor's cost and the wall clock. Each phase() closes
/// the span since the last mark under `name`, into `r.phases` and the
/// executor's phase sink; finish() counts the chosen pointers and charges
/// the run's total cost.
template <class Exec>
class PhaseClock {
 public:
  PhaseClock(Exec& exec, MatchResult& r)
      : exec_(exec),
        r_(r),
        start_(exec.stats()),
        mark_(start_),
        wall_mark_(std::chrono::steady_clock::now()) {
    r_.reset();
  }

  void phase(const std::string& name) {
    const pram::Stats delta = exec_.stats() - mark_;
    const auto now = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(now - wall_mark_).count();
    r_.phases.push_back({name, delta, wall_ms});
    pram::note_phase(exec_, name, delta, wall_ms);
    mark_ = exec_.stats();
    wall_mark_ = now;
  }

  void finish() {
    r_.edges = 0;
    for (auto b : r_.in_matching) r_.edges += (b != 0);
    r_.cost = exec_.stats() - start_;
  }

 private:
  Exec& exec_;
  MatchResult& r_;
  pram::Stats start_;
  pram::Stats mark_;
  std::chrono::steady_clock::time_point wall_mark_;
};

/// Compute the predecessor array as one PRAM step pair (init + scatter)
/// into a caller-sized buffer; writes are exclusive (each node has at most
/// one predecessor) — EREW.
template <class Exec>
void parallel_predecessors_into(Exec& exec, const list::LinkedList& list,
                                std::vector<index_t>& pred) {
  const std::size_t n = list.size();
  const auto& next = list.next_array();
  LLMP_CHECK(pred.size() == n);
  if constexpr (pram::has_sweep_v<Exec>) {
    if (pram::tuning().fused) {
      const index_t* nx = next.data();
      index_t* pr = pred.data();
      exec.sweep(n, 1, [pr](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) pr[v] = knil;
      });
      exec.sweep(n, 1, [=](std::size_t lo, std::size_t hi) {
        constexpr std::size_t dist = pram::kPrefetchDistance;
        for (std::size_t v = lo; v < hi; ++v) {
          if (v + dist < hi) {
            const index_t pf = nx[v + dist];
            if (pf != knil) pram::prefetch_rw(pr + pf);
          }
          const index_t s = nx[v];
          if (s != knil) pr[s] = static_cast<index_t>(v);
        }
      });
      return;
    }
  }
  exec.step(n, [&](std::size_t v, auto&& m) { m.wr(pred, v, knil); });
  exec.step(n, [&](std::size_t v, auto&& m) {
    const index_t s = m.rd(next, v);
    if (s != knil) m.wr(pred, static_cast<std::size_t>(s),
                        static_cast<index_t>(v));
  });
}

template <class Exec>
std::vector<index_t> parallel_predecessors(Exec& exec,
                                           const list::LinkedList& list) {
  std::vector<index_t> pred(list.size());
  parallel_predecessors_into(exec, list, pred);
  return pred;
}

}  // namespace llmp::core
