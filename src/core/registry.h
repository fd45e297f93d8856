// The single algorithm registry.
//
// Every runnable algorithm in the repo is described by one AlgorithmEntry:
// its public name, the PRAM variant it is designed for, the paper's time
// bound as a display string, and a type-erased runner that executes it on
// any of the four execution backends (SeqExec, ParallelExec, Machine,
// SymbolicExec) through a pram::Context. The registry is the one dispatch
// surface: core::maximal_matching routes through it, tools/llmp_prove and
// the analysis tests sweep it, examples/llmp_cli lists and resolves names
// from it, and the benches read formulas from it.
//
// Layering: core/ cannot depend on apps/, so the registry is extensible —
// instance() seeds the core entries (matching algorithms and the bare
// WalkDown schedules); apps::register_algorithms() (src/apps/register.h)
// appends the application entries. Table order is pinned by the explicit
// `order` rank, never by registration order, so the llmp_prove report is
// byte-stable however registration interleaves. Registration is expected
// to happen on one thread before any parallel use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/match_result.h"
#include "core/partition_fn.h"
#include "list/linked_list.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/symbolic_exec.h"

namespace llmp::core {

enum class Algorithm {
  kSequential,  ///< greedy walk, T1 = n (the optimality baseline)
  kMatch1,      ///< O(n·G(n)/p + G(n))
  kMatch2,      ///< O(n/p + log n), sort-bound
  kMatch3,      ///< O(n·log G(n)/p + log G(n)), not optimal
  kMatch4,      ///< this paper: O(n·log i/p + log^(i) n + log i)
  kRandomized,  ///< Luby-style coin tossing, O(log n) rounds w.h.p.
};

/// Number of Algorithm values, one past the last; state indexed by
/// Algorithm is sized from it, and validate_options() rejects any value
/// outside [0, kAlgorithmCount).
inline constexpr std::size_t kAlgorithmCount =
    static_cast<std::size_t>(Algorithm::kRandomized) + 1;

std::string to_string(Algorithm alg);

struct MatchOptions {
  Algorithm algorithm = Algorithm::kMatch4;
  /// Match4's adjustable i (rows = Θ(log^(i) n)); also reused as Match2's
  /// partition rounds and Match3's crunch rounds when nonzero.
  int i_parameter = 3;
  /// Match4: use the Lemma 5 table-accelerated partition.
  bool partition_with_table = false;
  /// Run the algorithm's EREW variant where one exists (Match1, Match2,
  /// Match4); ignored by the others.
  bool erew = false;
  BitRule rule = BitRule::kMostSignificant;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;  ///< randomized baseline only
};

/// Type-erased "run this algorithm once" entry point, instantiated over
/// the four Context backends from one generic lambda (make_runner below).
/// Runners take a Context so algorithm bodies can lease arena scratch and
/// report phase spans whatever the backend.
class AlgoRunner {
 public:
  virtual ~AlgoRunner() = default;
  virtual void run(pram::Context<pram::SeqExec>& ctx,
                   const list::LinkedList& list) const = 0;
  virtual void run(pram::Context<pram::ParallelExec>& ctx,
                   const list::LinkedList& list) const = 0;
  virtual void run(pram::Context<pram::Machine>& ctx,
                   const list::LinkedList& list) const = 0;
  virtual void run(pram::Context<pram::SymbolicExec>& ctx,
                   const list::LinkedList& list) const = 0;
};

/// Type-erased options-driven matching entry point: the one dispatcher
/// behind core::maximal_matching for the known backends. Fills `out` in
/// place so a warm caller reuses its result buffers.
class MatchDispatcher {
 public:
  virtual ~MatchDispatcher() = default;
  virtual void run(pram::Context<pram::SeqExec>& ctx,
                   const list::LinkedList& list, const MatchOptions& opt,
                   MatchResult& out) const = 0;
  virtual void run(pram::Context<pram::ParallelExec>& ctx,
                   const list::LinkedList& list, const MatchOptions& opt,
                   MatchResult& out) const = 0;
  virtual void run(pram::Context<pram::Machine>& ctx,
                   const list::LinkedList& list, const MatchOptions& opt,
                   MatchResult& out) const = 0;
  virtual void run(pram::Context<pram::SymbolicExec>& ctx,
                   const list::LinkedList& list, const MatchOptions& opt,
                   MatchResult& out) const = 0;
};

struct AlgorithmEntry {
  std::string name;      ///< registry key, e.g. "match4-erew"
  pram::Mode declared;   ///< PRAM variant the algorithm is designed for
  std::string formula;   ///< the paper's time bound, for display
  int order = 0;         ///< report/table rank (llmp_prove row order)
  bool in_prover = false;  ///< swept by llmp_prove / the analysis tests
  bool matching = false;   ///< `canonical` drives core::maximal_matching
  /// The MatchOptions this name denotes (e.g. "match4-table" sets
  /// partition_with_table); meaningful only when `matching` is true.
  MatchOptions canonical{};
  std::shared_ptr<const AlgoRunner> runner;
};

class AlgorithmRegistry {
 public:
  /// The process-wide registry, seeded with the core entries on first use.
  static AlgorithmRegistry& instance();

  /// Register an entry; a name collision keeps the first registration
  /// (makes repeated register_algorithms() calls idempotent).
  void add(AlgorithmEntry entry);

  const AlgorithmEntry* find(std::string_view name) const;

  /// All entries, ordered by `order` rank.
  std::vector<const AlgorithmEntry*> entries() const;
  /// The prover-swept subset, ordered by `order` rank.
  std::vector<const AlgorithmEntry*> prover_entries() const;

  /// The options-driven matching dispatcher behind maximal_matching.
  const MatchDispatcher& match_dispatcher() const { return *dispatcher_; }

 private:
  AlgorithmRegistry();

  std::vector<AlgorithmEntry> entries_;
  std::shared_ptr<const MatchDispatcher> dispatcher_;
};

namespace detail {

template <class Fn>
class AlgoRunnerImpl final : public AlgoRunner {
 public:
  explicit AlgoRunnerImpl(Fn fn) : fn_(std::move(fn)) {}
  void run(pram::Context<pram::SeqExec>& ctx,
           const list::LinkedList& list) const override {
    fn_(ctx, list);
  }
  void run(pram::Context<pram::ParallelExec>& ctx,
           const list::LinkedList& list) const override {
    fn_(ctx, list);
  }
  void run(pram::Context<pram::Machine>& ctx,
           const list::LinkedList& list) const override {
    fn_(ctx, list);
  }
  void run(pram::Context<pram::SymbolicExec>& ctx,
           const list::LinkedList& list) const override {
    fn_(ctx, list);
  }

 private:
  Fn fn_;
};

}  // namespace detail

/// Wrap one generic lambda `fn(ctx, list)` as a four-backend runner.
template <class Fn>
std::shared_ptr<const AlgoRunner> make_runner(Fn fn) {
  return std::make_shared<detail::AlgoRunnerImpl<Fn>>(std::move(fn));
}

}  // namespace llmp::core
