// E7/E8 (Lemmas 6–7, Corollaries 1–2): the WalkDown schedules.
//
//  * WalkDown1 handles all inter-row pointers in exactly x steps of y
//    processors (Lemma 6).
//  * WalkDown2 handles the cell in row r at step r + A[r] (Lemma 7),
//    finishes by step 2x−2 (Corollary 1), and cells handled together in a
//    row share one set number (Corollary 2).
//
// The tables sweep the row count x (via the partition parameter i) and the
// list shape (blocked lists shift the inter/intra mix), reporting schedule
// lengths, per-step occupancy, and audited properties.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "core/gather.h"
#include "core/verify.h"
#include "core/walkdown.h"

namespace {

using namespace llmp;

struct Audited {
  std::size_t rows = 0, cols = 0;
  std::size_t inter = 0, intra = 0;
  std::size_t schedule_steps = 0;
  std::size_t max_handled_step = 0;
  bool lemma7_exact = true;
  bool corollary2 = true;
  std::uint64_t time_p = 0;
};

/// The matching-set numbers after `rounds` relabel rounds: the keys the
/// layout sorts its columns by.
std::vector<index_t> set_keys(pram::SeqExec& exec,
                              const list::LinkedList& lst, int rounds) {
  const std::size_t n = lst.size();
  std::vector<label_t> labels;
  core::init_address_labels(exec, n, labels);
  core::relabel_rounds(exec, lst, labels, rounds,
                       core::BitRule::kMostSignificant);
  std::vector<index_t> keys(n);
  for (index_t v = 0; v < n; ++v) keys[v] = static_cast<index_t>(labels[v]);
  return keys;
}

Audited audit(const list::LinkedList& lst, int rounds, std::size_t p) {
  const std::size_t n = lst.size();
  pram::SeqExec exec(p);
  const std::vector<index_t> keys = set_keys(exec, lst, rounds);
  const label_t bound = core::bound_after_rounds(n, rounds);

  const auto t0 = exec.stats();
  core::Layout2D lay = core::build_layout(exec, n, keys, bound);
  auto pred = lst.predecessors();
  std::vector<std::uint8_t> color(n, core::kNoColor);
  core::walkdown1(exec, lst, lay, pred, color);
  const auto trace = core::walkdown2(exec, lst, lay, pred, color);

  Audited a;
  a.rows = lay.rows;
  a.cols = lay.cols;
  a.schedule_steps = trace.steps;
  a.time_p = (exec.stats() - t0).time_p;
  const auto& next = lst.next_array();
  std::map<std::pair<index_t, index_t>, index_t> row_step_key;
  for (index_t v = 0; v < n; ++v) {
    if (lst.has_pointer(v)) {
      (lay.node_row[v] == lay.node_row[next[v]] ? a.intra : a.inter) += 1;
    }
    a.lemma7_exact &= trace.handled_at[v] == lay.node_row[v] + keys[v];
    a.max_handled_step = std::max<std::size_t>(a.max_handled_step,
                                               trace.handled_at[v]);
    const auto key = std::make_pair(trace.handled_at[v], lay.node_row[v]);
    const auto res = row_step_key.emplace(key, keys[v]);
    a.corollary2 &= res.first->second == keys[v];
  }
  // The combined partition must be a proper 3-coloring of the pointers.
  std::vector<label_t> plabel(n, 0);
  for (index_t v = 0; v < n; ++v)
    if (lst.has_pointer(v)) plabel[v] = color[v];
  core::verify::check_pointer_partition(lst, plabel);
  return a;
}

void run_tables(const bench::BenchArgs& args) {
  std::cout << "E7/E8 — WalkDown schedules (Lemmas 6-7, Corollaries 1-2)\n";
  const std::size_t n = args.n_or(std::size_t{1} << 18);

  std::cout << "\n(a) row-count sweep (random list, n = " << bench::pow2(n)
            << ", p = y = n/x)\n";
  {
    fmt::Table t({"partition rounds i", "rows x", "cols y", "inter ptrs",
                  "intra ptrs", "WalkDown2 steps (=2x-1)",
                  "last handled (<=2x-2)", "Lemma7 exact", "Cor.2"});
    for (int i = 1; i <= 4; ++i) {
      const auto lst = list::generators::random_list(n, 100 + i);
      const label_t bound = core::bound_after_rounds(n, i);
      const std::size_t p = (n + bound - 1) / bound;
      const Audited a = audit(lst, i, p);
      t.add_row({fmt::num(i), fmt::num(a.rows), fmt::num(a.cols),
                 fmt::num(a.inter), fmt::num(a.intra),
                 fmt::num(a.schedule_steps), fmt::num(a.max_handled_step),
                 a.lemma7_exact ? "yes" : "NO",
                 a.corollary2 ? "yes" : "NO"});
    }
    t.print();
  }

  std::cout << "\n(b) shape sweep at i = 2: blocked lists concentrate "
               "pointers within columns,\n    shifting the inter/intra "
               "mix the two phases split\n";
  {
    fmt::Table t({"shape", "inter ptrs", "intra ptrs", "time_p (p=y)",
                  "Lemma7 exact"});
    auto row = [&](const char* name, const list::LinkedList& lst) {
      const label_t bound = core::bound_after_rounds(n, 2);
      const std::size_t p = (n + bound - 1) / bound;
      const Audited a = audit(lst, 2, p);
      t.add_row({name, fmt::num(a.inter), fmt::num(a.intra),
                 fmt::num(a.time_p), a.lemma7_exact ? "yes" : "NO"});
    };
    row("random", list::generators::random_list(n, 7));
    row("identity", list::generators::identity_list(n));
    row("reverse", list::generators::reverse_list(n));
    row("blocked(16)", list::generators::blocked_list(n, 16, 7));
    row("blocked(4096)", list::generators::blocked_list(n, 4096, 7));
    t.print();
  }
}

/// Times the production `walkdown` (the closed form on SeqExec) on a
/// prepared layout; the tables above audit the referee walks instead.
void BM_WalkDownSchedule(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto lst = list::generators::random_list(n, 6);
  pram::SeqExec exec(64);
  const core::Layout2D lay = core::build_layout(
      exec, n, set_keys(exec, lst, 2), core::bound_after_rounds(n, 2));
  const auto pred = lst.predecessors();
  std::vector<std::uint8_t> color;
  for (auto _ : state) {
    color.assign(n, core::kNoColor);
    core::walkdown(exec, lst, lay, pred, color);
    benchmark::DoNotOptimize(color.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_WalkDownSchedule)->Arg(1 << 16)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const llmp::bench::BenchArgs args = llmp::bench::parse_bench_args(argc, argv);
  run_tables(args);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
