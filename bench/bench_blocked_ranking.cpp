// Experiment: out-of-core matching/ranking through the block engine.
//
// One random list, sized to dwarf the block cache, is run through
// engine::BlockedMatcher at a sweep of cache budgets — from everything-
// resident down to 1/16 of the working set — and each run is checked
// byte-for-byte against the flat path (core::sequential_matching for the
// MatchResult, apps::sequential_ranking for the ranks). The table puts
// the cache counters (hit rate, loads, spills, swap count, bytes moved)
// next to blocked-vs-flat wall clock, so the IO-vs-compute crossover is
// directly visible: at ratio 1x the engine pays only mailbox overhead;
// past the cache cliff every batch of tokens pays a block swap.
//
//   --n N    list length (default 2^17 = 131072 nodes; with 4096-node
//            blocks that is 32 blocks, so the 4-frame row runs at 8x
//            the cache budget — the acceptance geometry)
//   --csv / --json[=FILE]   as in every bench (see bench_common.h)
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/list_ranking.h"
#include "bench_common.h"
#include "core/sequential.h"
#include "engine/blocked_match.h"
#include "list/generators.h"
#include "support/format.h"

namespace llmp {
namespace {

struct Row {
  std::size_t cache_blocks = 0;
  double ratio = 0;  // working-set blocks / cache frames
  engine::EngineStats stats;
  double cold_ms = 0;  // init + first matching run
  double warm_ms = 0;  // second matching run, cache warm
  bool exact = false;
};

bool same_result(const core::MatchResult& a, const core::MatchResult& b) {
  return a.in_matching == b.in_matching && a.edges == b.edges &&
         a.cost.depth == b.cost.depth && a.cost.work == b.cost.work;
}

int run(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const std::size_t n = args.n_or(std::size_t{1} << 17);

  list::LinkedList list = list::generators::random_list(n, /*seed=*/42);

  // Flat baseline: result to diff against, and the compute-only wall ms.
  core::MatchResult flat;
  const double flat_ms =
      bench::wall_ms([&] { core::sequential_matching_into(list, flat); });
  const std::vector<std::uint64_t> flat_rank = apps::sequential_ranking(list);

  engine::BlockConfig cfg;
  const std::size_t blocks =
      (n + cfg.block_nodes - 1) / cfg.block_nodes;

  // Sweep frames: all-resident, then halve until 1/16 of the working set.
  std::vector<std::size_t> frames;
  for (std::size_t c = blocks; c >= 1; c /= 2) {
    frames.push_back(c);
    if (blocks / c >= 16) break;
  }

  std::vector<Row> rows;
  for (std::size_t c : frames) {
    cfg.cache_blocks = c;
    engine::BlockedMatcher matcher;
    core::MatchResult blocked;
    Row row;
    row.cache_blocks = c;
    row.ratio = static_cast<double>(blocks) / static_cast<double>(c);
    row.cold_ms = bench::wall_ms([&] {
      Status s = matcher.init(list, cfg);
      if (s.ok()) s = matcher.matching_into(blocked);
      LLMP_CHECK(s.ok());
    });
    matcher.reset_stats();
    row.warm_ms =
        bench::wall_ms([&] { LLMP_CHECK(matcher.matching_into(blocked).ok()); });
    row.stats = matcher.stats();
    std::vector<std::uint64_t> rank;
    LLMP_CHECK(matcher.ranking_into(rank).ok());
    row.exact = same_result(flat, blocked) && rank == flat_rank;
    rows.push_back(row);
  }

  const std::size_t rec = sizeof(engine::NodeRec);
  std::printf(
      "blocked ranking: n=%zu nodes, %zu blocks of %zu (%zu B/rec), "
      "flat walk %s ms\n",
      n, blocks, cfg.block_nodes, rec, fmt::num(flat_ms, 3).c_str());

  fmt::Table t({"frames", "budget_KiB", "ratio", "hit_rate", "loads",
                "spills", "load_MiB", "spill_MiB", "swaps", "longest_segment",
                "posts", "batches", "warm_ms", "vs_flat", "exact"});
  for (const Row& r : rows) {
    const engine::EngineStats& e = r.stats;
    t.add_row({fmt::num(static_cast<std::uint64_t>(r.cache_blocks)),
               fmt::num(static_cast<std::uint64_t>(
                   r.cache_blocks * cfg.block_nodes * rec / 1024)),
               fmt::num(r.ratio, 1) + "x", fmt::num(e.hit_rate(), 3),
               fmt::num(e.loads), fmt::num(e.spills),
               fmt::num(static_cast<double>(e.load_bytes) / (1 << 20), 2),
               fmt::num(static_cast<double>(e.spill_bytes) / (1 << 20), 2),
               fmt::num(e.swaps), fmt::num(e.longest_segment),
               fmt::num(e.mailbox_posts),
               fmt::num(e.mailbox_batches), fmt::num(r.warm_ms, 3),
               fmt::num(flat_ms > 0 ? r.warm_ms / flat_ms : 0.0, 2) + "x",
               r.exact ? "yes" : "NO"});
  }
  t.print();

  for (const Row& r : rows) {
    if (!r.exact) {
      std::fprintf(stderr,
                   "FAIL: blocked result diverged from flat at %zu frames\n",
                   r.cache_blocks);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace llmp

int main(int argc, char** argv) { return llmp::run(argc, argv); }
