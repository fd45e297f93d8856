#include "core/registry.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/match_dispatch.h"
#include "core/walkdown.h"
#include "support/types.h"

namespace llmp::core {

std::string to_string(Algorithm alg) {
  switch (alg) {
    case Algorithm::kSequential: return "sequential";
    case Algorithm::kMatch1: return "Match1";
    case Algorithm::kMatch2: return "Match2";
    case Algorithm::kMatch3: return "Match3";
    case Algorithm::kMatch4: return "Match4";
    case Algorithm::kRandomized: return "randomized";
  }
  return "?";
}

namespace {

/// The options-driven dispatcher: one dispatch_match instantiation per
/// backend, shared by every matching entry.
class MatchDispatcherImpl final : public MatchDispatcher {
 public:
  void run(pram::Context<pram::SeqExec>& ctx, const list::LinkedList& list,
           const MatchOptions& opt, MatchResult& out) const override {
    detail::dispatch_match(ctx, list, opt, out);
  }
  void run(pram::Context<pram::ParallelExec>& ctx,
           const list::LinkedList& list, const MatchOptions& opt,
           MatchResult& out) const override {
    detail::dispatch_match(ctx, list, opt, out);
  }
  void run(pram::Context<pram::Machine>& ctx, const list::LinkedList& list,
           const MatchOptions& opt, MatchResult& out) const override {
    detail::dispatch_match(ctx, list, opt, out);
  }
  void run(pram::Context<pram::SymbolicExec>& ctx,
           const list::LinkedList& list, const MatchOptions& opt,
           MatchResult& out) const override {
    detail::dispatch_match(ctx, list, opt, out);
  }
};

/// The bare WalkDown schedule on a completed partition: reduce labels to
/// the fixed point, lay the list out in a kFixedPointBound × ceil(n/x)
/// grid, then run WalkDown1 (inter-row pointers) and WalkDown2 (intra-row
/// pointers) — in closed form on the fused backends. Mirrors match4's
/// steps 2–4 without the final cut.
template <class Exec>
void walkdown_schedule(Exec& exec, const list::LinkedList& list, bool erew) {
  const std::size_t n = list.size();
  auto pred_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& pred = *pred_h;
  parallel_predecessors_into(exec, list, pred);
  auto labels_h = pram::scratch<label_t>(exec, n);
  std::vector<label_t>& labels = *labels_h;
  init_address_labels(exec, n, labels);
  if (erew)
    reduce_to_constant_erew(exec, list, pred, labels,
                            BitRule::kMostSignificant);
  else
    reduce_to_constant(exec, list, labels, BitRule::kMostSignificant,
                       /*labels_are_addresses=*/true);
  const Layout2D lay = sort_columns(
      exec, labels, static_cast<std::size_t>(kFixedPointBound));
  walkdown_colors(exec, list, lay, pred, erew);
}

AlgorithmEntry match_entry(std::string name, pram::Mode declared,
                           std::string formula, int order, bool in_prover,
                           MatchOptions canonical) {
  AlgorithmEntry e;
  e.name = std::move(name);
  e.declared = declared;
  e.formula = std::move(formula);
  e.order = order;
  e.in_prover = in_prover;
  e.matching = true;
  e.canonical = canonical;
  e.runner = make_runner([canonical](auto& ctx, const list::LinkedList& list) {
    MatchResult out;
    detail::dispatch_match(ctx, list, canonical, out);
  });
  return e;
}

AlgorithmEntry schedule_entry(std::string name, pram::Mode declared,
                              std::string formula, int order, bool erew) {
  AlgorithmEntry e;
  e.name = std::move(name);
  e.declared = declared;
  e.formula = std::move(formula);
  e.order = order;
  e.in_prover = true;
  e.runner = make_runner([erew](auto& ctx, const list::LinkedList& list) {
    walkdown_schedule(ctx, list, erew);
  });
  return e;
}

}  // namespace

AlgorithmRegistry::AlgorithmRegistry()
    : dispatcher_(std::make_shared<MatchDispatcherImpl>()) {
  // Ranks 0–9: the matching algorithms and the bare WalkDown schedules, in
  // the order llmp_prove has always reported them. apps/register.cpp takes
  // ranks 10+; the non-prover baselines sit at the end of listings.
  add(match_entry("match1", pram::Mode::kCREW, "O(n·G(n)/p + G(n))", 0, true,
                  {.algorithm = Algorithm::kMatch1}));
  add(match_entry("match1-erew", pram::Mode::kEREW, "O(n·G(n)/p + G(n))", 1,
                  true, {.algorithm = Algorithm::kMatch1, .erew = true}));
  add(match_entry("match2", pram::Mode::kCREW, "O(n/p + log n)", 2, true,
                  {.algorithm = Algorithm::kMatch2}));
  add(match_entry("match2-erew", pram::Mode::kEREW, "O(n/p + log n)", 3, true,
                  {.algorithm = Algorithm::kMatch2, .erew = true}));
  add(match_entry("match3", pram::Mode::kCREW,
                  "O(n·log G(n)/p + log G(n))", 4, true,
                  {.algorithm = Algorithm::kMatch3}));
  add(match_entry("match4", pram::Mode::kCREW,
                  "O(n·log i/p + log^(i) n + log i)", 5, true,
                  {.algorithm = Algorithm::kMatch4}));
  add(match_entry("match4-table", pram::Mode::kCREW,
                  "O(n·log i/p + log^(i) n + log i)", 6, true,
                  {.algorithm = Algorithm::kMatch4,
                   .partition_with_table = true}));
  add(match_entry("match4-erew", pram::Mode::kEREW,
                  "O(n·log i/p + log^(i) n + log i)", 7, true,
                  {.algorithm = Algorithm::kMatch4, .erew = true}));
  add(schedule_entry("walkdown1+2", pram::Mode::kCREW,
                     "3x−1 steps of ⌈n/x⌉ procs", 8, /*erew=*/false));
  add(schedule_entry("walkdown-erew", pram::Mode::kEREW,
                     "3x−1 steps of ⌈n/x⌉ procs", 9, /*erew=*/true));
  add(match_entry("sequential", pram::Mode::kEREW, "T1 = n", 90, false,
                  {.algorithm = Algorithm::kSequential}));
  add(match_entry("randomized", pram::Mode::kCREW,
                  "O(log n) rounds w.h.p.", 91, false,
                  {.algorithm = Algorithm::kRandomized}));
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry;
  return registry;
}

void AlgorithmRegistry::add(AlgorithmEntry entry) {
  if (find(entry.name) != nullptr) return;  // first registration wins
  entries_.push_back(std::move(entry));
}

const AlgorithmEntry* AlgorithmRegistry::find(std::string_view name) const {
  for (const AlgorithmEntry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

std::vector<const AlgorithmEntry*> AlgorithmRegistry::entries() const {
  std::vector<const AlgorithmEntry*> out;
  out.reserve(entries_.size());
  for (const AlgorithmEntry& e : entries_) out.push_back(&e);
  std::stable_sort(out.begin(), out.end(),
                   [](const AlgorithmEntry* a, const AlgorithmEntry* b) {
                     return a->order < b->order;
                   });
  return out;
}

std::vector<const AlgorithmEntry*> AlgorithmRegistry::prover_entries() const {
  std::vector<const AlgorithmEntry*> out = entries();
  std::erase_if(out, [](const AlgorithmEntry* e) { return !e->in_prover; });
  return out;
}

}  // namespace llmp::core
