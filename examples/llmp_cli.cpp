// Command-line driver: run any algorithm on any workload from a shell,
// with human-readable or JSON output for scripting sweeps.
//
//   llmp_cli match --alg match4 --n 1048576 --p 4096 --shape random --i 3
//   llmp_cli match --alg match2 --n 65536 --erew --json
//   llmp_cli rank  --n 100000 --p 1024
//   llmp_cli color --n 4096 --shape strided
//   llmp_cli tree  --n 65536 --seed 7
//   llmp_cli list                    # registry: names, models, time bounds
//
// The match command goes through the public surface (llmp.h): names
// resolve through the single registry, so `--alg match4-table` or
// `--alg match1-erew` picks up that entry's canonical options; bare flags
// (--i, --table, --erew) override on top, and bad input comes back as a
// Status instead of aborting. The app commands (rank/color/tree) use the
// apps/ headers directly — they are demos of the repo's internals, not of
// the stable surface. (Built as example_llmp_cli.)
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "apps/euler_tour.h"
#include "apps/independent_set.h"
#include "apps/list_ranking.h"
#include "apps/three_coloring.h"
#include "core/sequential.h"
#include "engine/blocked_match.h"
#include "llmp.h"
#include "support/failpoint.h"
#include "support/format.h"

namespace {

using namespace llmp;

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& name) const { return kv.count("--" + name); }
  std::string str(const std::string& name, const std::string& dflt) const {
    auto it = kv.find("--" + name);
    return it == kv.end() ? dflt : it->second;
  }
  std::uint64_t num(const std::string& name, std::uint64_t dflt) const {
    auto it = kv.find("--" + name);
    return it == kv.end() ? dflt : std::strtoull(it->second.c_str(),
                                                 nullptr, 10);
  }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.kv[token] = argv[i + 1];
      ++i;
    } else {
      a.kv[token] = "1";
    }
  }
  return a;
}

list::LinkedList make_list(const Args& a) {
  const std::size_t n = a.num("n", 1 << 16);
  const std::uint64_t seed = a.num("seed", 42);
  const std::string shape = a.str("shape", "random");
  if (shape == "identity") return list::generators::identity_list(n);
  if (shape == "reverse") return list::generators::reverse_list(n);
  if (shape == "strided")
    return list::generators::strided_list(n, a.num("stride", 1048573));
  if (shape == "blocked")
    return list::generators::blocked_list(n, a.num("block", 64), seed);
  return list::generators::random_list(n, seed);
}

void emit(const Args& a, const std::string& what,
          const std::vector<std::pair<std::string, std::string>>& fields) {
  if (a.flag("json")) {
    std::cout << "{\"kind\":\"" << what << "\"";
    for (const auto& [k, v] : fields) {
      const bool numeric =
          !v.empty() && v.find_first_not_of("0123456789.") == std::string::npos;
      std::cout << ",\"" << k << "\":" << (numeric ? v : "\"" + v + "\"");
    }
    std::cout << "}\n";
    return;
  }
  fmt::Table t({"field", "value"});
  for (const auto& [k, v] : fields) t.add_row({k, v});
  t.print();
}

/// `match --budget-bytes B`: run through the out-of-core block engine
/// under a B-byte cache budget instead of the flat path. The result is
/// still diffed against core::sequential_matching, and the engine's
/// cache counters ride along in the emitted fields.
int cmd_match_blocked(const Args& a, const list::LinkedList& lst) {
  llmp::Context ctx(static_cast<std::size_t>(a.num("p", 1024)));
  const std::size_t budget =
      static_cast<std::size_t>(a.num("budget-bytes", 0));

  engine::BlockConfig cfg = engine::BlockConfig::from_budget(
      budget, sizeof(engine::NodeRec),
      static_cast<std::size_t>(a.num("block-nodes", 4096)));
  if (a.kv.count("--cache-blocks"))
    cfg.cache_blocks = static_cast<std::size_t>(a.num("cache-blocks", 8));

  engine::BlockedMatcher matcher;
  core::MatchResult r;
  Status s = matcher.init(lst, cfg);
  if (s.ok()) s = matcher.matching_into(r);
  if (!s.ok()) {
    std::cerr << s.to_string() << "\n";
    return 2;
  }
  ctx.pram_context().note_phase("engine",
                               engine::to_pram_stats(matcher.stats()));

  const core::MatchResult flat = core::sequential_matching(lst);
  const bool ok = r.in_matching == flat.in_matching && r.edges == flat.edges;
  const engine::EngineStats& e = matcher.stats();
  const std::size_t blocks = matcher.blocked_list().blocks();
  emit(a, "match_blocked",
       {{"n", std::to_string(lst.size())},
        {"edges", std::to_string(r.edges)},
        {"block_nodes", std::to_string(cfg.block_nodes)},
        {"cache_blocks", std::to_string(cfg.cache_blocks)},
        {"blocks", std::to_string(blocks)},
        {"budget_bytes", std::to_string(budget)},
        {"hit_rate", fmt::num(e.hit_rate(), 3)},
        {"loads", std::to_string(e.loads)},
        {"spills", std::to_string(e.spills)},
        {"load_bytes", std::to_string(e.load_bytes)},
        {"spill_bytes", std::to_string(e.spill_bytes)},
        {"swaps", std::to_string(e.swaps)},
        {"longest_segment", std::to_string(e.longest_segment)},
        {"mailbox_posts", std::to_string(e.mailbox_posts)},
        {"verified", ok ? "matches-flat" : "MISMATCH"}});
  return ok ? 0 : 1;
}

/// `match --audit off|audit|repair`: submit through a one-shot
/// serve::Service with the per-request audit override
/// (RequestBuilder::audit → serve::Request::audit). `--corrupt P` arms
/// the stabilize.corrupt.match failpoint first, so the healing path is
/// observable from a shell:
///   llmp_cli match --audit repair --corrupt 1 --n 65536
int cmd_match_served(const Args& a, const list::LinkedList& lst) {
  serve::AuditPolicy policy = serve::AuditPolicy::kOff;
  const std::string mode = a.str("audit", "off");
  if (!serve::audit_policy_from_string(mode, &policy)) {
    std::cerr << "--audit: expected off|audit|repair, got '" << mode << "'\n";
    return 2;
  }
  const std::string corrupt = a.str("corrupt", "");
  if (!corrupt.empty()) {
    const Status s = support::failpoint::arm_from_string(
        "stabilize.corrupt.match=status(data_loss):p=" + corrupt);
    if (!s.ok()) {
      std::cerr << "--corrupt: " << s.message() << "\n";
      return 2;
    }
  }
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  serve::Service svc(sopt);
  const std::string alg = a.str("alg", "match4");
  auto fut = svc.submit(
      RequestBuilder().algorithm(alg).list(lst).audit(policy).build());
  const Result<core::MatchResult> r = fut.get();
  const serve::ServiceStats st = svc.stats();
  svc.shutdown();
  support::failpoint::disarm_all();
  std::vector<std::pair<std::string, std::string>> fields = {
      {"algorithm", alg},
      {"n", std::to_string(lst.size())},
      {"audit", serve::to_string(policy)},
      {"status", r.ok() ? "OK" : r.status().to_string()},
      {"edges", std::to_string(r.ok() ? r->edges : 0)}};
  for (const auto& f : serve::kServiceStatsFields)
    fields.emplace_back(f.name, std::to_string(st.*f.member));
  emit(a, "match_served", fields);
  return r.ok() ? 0 : 1;
}

int cmd_match(const Args& a) {
  const auto lst = make_list(a);
  if (a.kv.count("--audit")) return cmd_match_served(a, lst);
  if (a.num("budget-bytes", 0) > 0 || a.kv.count("--cache-blocks") ||
      a.kv.count("--block-nodes"))
    return cmd_match_blocked(a, lst);
  llmp::Context ctx(static_cast<std::size_t>(a.num("p", 1024)));
  const std::string alg = a.str("alg", "match4");
  llmp::Options opt;
  opt.i_parameter = static_cast<int>(a.num("i", 0));  // 0 = canonical
  opt.table = a.flag("table");
  opt.erew = a.flag("erew");
  opt.seed = a.num("seed", 42);
  const auto r = llmp::run(ctx, alg, lst, opt);
  if (!r.ok()) {
    std::cerr << r.status().to_string() << " (see `llmp_cli list`)\n";
    return 2;
  }
  emit(a, "match",
       {{"algorithm", alg},
        {"n", std::to_string(lst.size())},
        {"p", std::to_string(ctx.processors())},
        {"edges", std::to_string(r->edges)},
        {"depth", std::to_string(r->cost.depth)},
        {"time_p", std::to_string(r->cost.time_p)},
        {"work", std::to_string(r->cost.work)},
        {"partition_sets", std::to_string(r->partition_sets)},
        {"verified", "maximal"}});
  return 0;
}

int cmd_rank(const Args& a) {
  const auto lst = make_list(a);
  pram::SeqExec exec(static_cast<std::size_t>(a.num("p", 1024)));
  const auto r = a.str("alg", "contraction") == "wyllie"
                     ? apps::wyllie_ranking(exec, lst)
                     : apps::contraction_ranking(exec, lst);
  const bool ok = r.rank == apps::sequential_ranking(lst);
  emit(a, "rank",
       {{"n", std::to_string(lst.size())},
        {"rounds", std::to_string(r.rounds)},
        {"time_p", std::to_string(r.cost.time_p)},
        {"work", std::to_string(r.cost.work)},
        {"verified", ok ? "ok" : "MISMATCH"}});
  return ok ? 0 : 1;
}

int cmd_color(const Args& a) {
  const auto lst = make_list(a);
  pram::SeqExec exec(static_cast<std::size_t>(a.num("p", 1024)));
  const auto col = apps::three_coloring(exec, lst);
  apps::check_coloring(lst, col.colors, 3);
  pram::SeqExec exec2(static_cast<std::size_t>(a.num("p", 1024)));
  const auto mis = apps::independent_set(exec2, lst);
  apps::check_independent_set(lst, mis.in_set);
  emit(a, "color",
       {{"n", std::to_string(lst.size())},
        {"coloring_rounds", std::to_string(col.reduce_rounds)},
        {"coloring_time_p", std::to_string(col.cost.time_p)},
        {"mis_size", std::to_string(mis.size)},
        {"verified", "proper+maximal"}});
  return 0;
}

int cmd_tree(const Args& a) {
  const std::size_t n = a.num("n", 1 << 14);
  const auto tree = apps::random_tree(n, a.num("seed", 42));
  pram::SeqExec exec(static_cast<std::size_t>(a.num("p", 1024)));
  const auto stats = apps::tree_statistics(exec, tree);
  std::uint64_t max_depth = 0;
  for (auto d : stats.depth) max_depth = std::max(max_depth, d);
  emit(a, "tree",
       {{"n", std::to_string(n)},
        {"max_depth", std::to_string(max_depth)},
        {"root_size", std::to_string(stats.subtree_size[tree.root])},
        {"prefix_rounds", std::to_string(stats.prefix_rounds)},
        {"time_p", std::to_string(stats.cost.time_p)}});
  return 0;
}

int cmd_list() {
  apps::register_algorithms();
  fmt::Table t({"name", "model", "time bound"});
  for (const core::AlgorithmEntry* e :
       core::AlgorithmRegistry::instance().entries())
    t.add_row({e->name, pram::to_string(e->declared), e->formula});
  t.print();
  return 0;
}

void usage() {
  std::cout <<
      "usage: llmp_cli <match|rank|color|tree|list> [options]\n"
      "  common: --n N --p P --seed S --shape "
      "random|identity|reverse|strided|blocked --json\n"
      "  match:  --alg sequential|match1|match2|match3|match4|randomized|"
      "<registry name> --i I --table --erew\n"
      "          --budget-bytes B [--block-nodes N --cache-blocks C]  run "
      "out of core through the block engine\n"
      "          --audit off|audit|repair [--corrupt P]  submit through a "
      "serve::Service with integrity auditing\n"
      "  rank:   --alg contraction|wyllie\n"
      "  list:   print the algorithm registry (names, models, bounds)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.command == "match") return cmd_match(a);
  if (a.command == "rank") return cmd_rank(a);
  if (a.command == "color") return cmd_color(a);
  if (a.command == "tree") return cmd_tree(a);
  if (a.command == "list") return cmd_list();
  usage();
  return a.command.empty() ? 0 : 2;
}
