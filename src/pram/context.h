// pram::Context — the run context every layer executes through.
//
// A Context bundles what used to be re-invented at each call site:
//
//   * a backend executor (SeqExec, ParallelExec, Machine or SymbolicExec)
//     supplying the step primitive, the processor budget and the Stats
//     accounting of stats.h — Context forwards all of these untouched, so
//     it satisfies the same Executor concept and every algorithm template
//     runs on it unchanged with byte-identical step sequences and costs;
//   * a ScratchArena (arena.h) so repeated runs reuse scratch capacity
//     instead of reallocating ~30 vectors per maximal_matching call;
//   * a metrics sink: phase-labeled Stats spans that algorithms feed via
//     note_phase()/phase_span(), giving benches per-phase breakdowns
//     without re-deriving them at each call site.
//
//   pram::SeqExec seq(64);
//   pram::Context ctx(seq);                    // CTAD: Context<SeqExec>
//   auto r = core::maximal_matching(ctx, list);  // warm calls: no allocs
//   for (const pram::Phase& ph : ctx.phases()) ...
//
// Context does not own the backend (backends have heterogeneous
// constructors and tests frequently need the concrete type afterwards,
// e.g. Machine::violations()); it borrows it for the context's lifetime.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "pram/arena.h"
#include "pram/stats.h"

namespace llmp::pram {

template <class Exec>
class Context {
 public:
  using backend_type = Exec;

  explicit Context(Exec& backend) : exec_(&backend) {}
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // ---- Executor concept: forwarded verbatim to the backend. --------------
  template <class F>
  void step(std::size_t nprocs, std::uint64_t unit_cost, F&& body) {
    exec_->step(nprocs, unit_cost, std::forward<F>(body));
  }
  template <class F>
  void step(std::size_t nprocs, F&& body) {
    exec_->step(nprocs, std::forward<F>(body));
  }
  /// Fused range sweep — forwarded only when the backend has one, so a
  /// Context over the verifying backends (Machine, SymbolicExec) stays
  /// sweep-free and algorithms keep their legacy per-element paths there
  /// (pram/sweep.h).
  template <class F>
    requires requires(Exec& e, std::size_t n, std::uint64_t u, F&& f) {
      e.sweep(n, u, static_cast<F&&>(f));
    }
  void sweep(std::size_t nprocs, std::uint64_t unit_cost, F&& range_body) {
    exec_->sweep(nprocs, unit_cost, std::forward<F>(range_body));
  }
  std::size_t processors() const { return exec_->processors(); }
  Stats& stats() { return exec_->stats(); }
  const Stats& stats() const { return exec_->stats(); }

  // ---- Context extras. ---------------------------------------------------
  Exec& backend() { return *exec_; }
  const Exec& backend() const { return *exec_; }
  ScratchArena& arena() { return arena_; }

  /// Append one phase-labeled cost span to the metrics sink. `wall_ms` is
  /// the measured wall-clock time of the span (0 when untimed) — the model
  /// cost in `delta` is deterministic, the wall time is machine noise; the
  /// bench gate compares only the former.
  void note_phase(const std::string& name, const Stats& delta,
                  double wall_ms = 0.0) {
    phases_.push_back({name, delta, wall_ms});
  }
  const PhaseBreakdown& phases() const { return phases_; }
  /// Drop recorded phases, keeping capacity (call between warm runs).
  void clear_phases() { phases_.clear(); }

  /// RAII phase span: records the backend Stats delta between construction
  /// and destruction under `name`.
  class PhaseSpan {
   public:
    PhaseSpan(Context& ctx, std::string name)
        : ctx_(&ctx),
          name_(std::move(name)),
          start_(ctx.stats()),
          wall_start_(std::chrono::steady_clock::now()) {}
    PhaseSpan(const PhaseSpan&) = delete;
    PhaseSpan& operator=(const PhaseSpan&) = delete;
    ~PhaseSpan() {
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - wall_start_)
                                 .count();
      ctx_->note_phase(name_, ctx_->stats() - start_, wall_ms);
    }

   private:
    Context* ctx_;
    std::string name_;
    Stats start_;
    std::chrono::steady_clock::time_point wall_start_;
  };
  PhaseSpan phase_span(std::string name) {
    return PhaseSpan(*this, std::move(name));
  }

 private:
  Exec* exec_;
  ScratchArena arena_;
  PhaseBreakdown phases_;
};

template <class T>
inline constexpr bool is_context_v = false;
template <class E>
inline constexpr bool is_context_v<Context<E>> = true;

/// Forward a phase delta to the executor's metrics sink when it has one —
/// a no-op on bare executors, so instrumented algorithm templates cost
/// nothing outside a Context.
template <class Exec>
void note_phase(Exec& exec, const std::string& name, const Stats& delta,
                double wall_ms = 0.0) {
  if constexpr (requires { exec.note_phase(name, delta, wall_ms); }) {
    exec.note_phase(name, delta, wall_ms);
  }
}

}  // namespace llmp::pram
