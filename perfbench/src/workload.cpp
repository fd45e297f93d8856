#include "workload.h"

#include <string>

#include "apps/list_ranking.h"
#include "core/run.h"
#include "core/sequential.h"
#include "kernels.h"
#include "list/generators.h"
#include "llmp.h"
#include "net/wire.h"
#include "pram/tune.h"

namespace perfbench {

using namespace llmp;

const WorkloadSpec* find_workload(std::string_view name) {
  // Rates are frozen: changing one changes the benchmark. Each open-loop
  // rate is about a quarter of the workload's closed-loop throughput on a
  // 4-vCPU host. offline's requests are verified 2^16-node lists, ~4 ms
  // of work each, so the thread wake-ups in a round trip, whose cost
  // varies with the host's load, are a small share of it (README.md).
  static const WorkloadSpec table[] = {
      {.name = "offline",
       .n = 65536,
       .pool = 8,
       .inline_lists = false,
       .audit = serve::AuditPolicy::kOff,
       .verify = true,
       .open_rate_rps = 120,
       .window = 4},
      {.name = "net_bulk",
       .n = 32768,
       .pool = 8,
       .inline_lists = true,
       .audit = serve::AuditPolicy::kAudit,
       .verify = true,
       .open_rate_rps = 200,
       .window = 4},
  };
  for (const WorkloadSpec& w : table)
    if (name == w.name) return &w;
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<list::LinkedList> pool;
  std::vector<std::uint64_t> pool_seeds;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t k = 0; k < spec.pool; ++k) {
    pool_seeds.push_back(mix(seed, 100 + k));
    pool.push_back(list::generators::random_list(spec.n, pool_seeds.back()));
    net::RequestFrame f;
    f.algorithm = kServedAlgorithm;
    f.n = spec.n;
    if (spec.inline_lists) {
      f.list_spec = net::ListSpec::kInline;
      f.links = pool.back().next_array();
    } else {
      f.list_spec = net::ListSpec::kGenerated;
      f.seed = pool_seeds.back();
    }
    // Keep the payload only: each send writes its own header.
    std::vector<std::uint8_t> frame;
    if (!net::encode_request(f, 0, 0, frame).ok()) frame.clear();
    const auto skip = static_cast<long>(
        std::min(frame.size(), net::kFrameHeaderBytes));
    payloads.emplace_back(frame.begin() + skip, frame.end());
  }
  // The request stream: which pool list each request id names.
  std::vector<std::uint32_t> stream(std::size_t{1} << 16);
  for (std::size_t i = 0; i < stream.size(); ++i)
    stream[i] =
        static_cast<std::uint32_t>(mix(seed, 1'000'000 + i) % spec.pool);
  std::vector<list::LinkedList> own_kernel_lists;
  if (spec.n != kKernelNodes || spec.pool != kKernelLists)
    for (std::size_t k = 0; k < kKernelLists; ++k)
      own_kernel_lists.push_back(
          list::generators::random_list(kKernelNodes, mix(seed, 200 + k)));
  return Inputs{std::move(pool), std::move(pool_seeds),
                std::move(own_kernel_lists),
                list::generators::random_list(kKernelNodes, mix(seed, 2)),
                std::move(payloads), std::move(stream)};
}

Oracles compute_oracles(const Inputs& inputs, std::int64_t skew) {
  Oracles o;
  const bool fused = pram::tuning().fused;
  pram::tuning().fused = false;
  llmp::Context legacy;
  for (const list::LinkedList& list : inputs.kernel_lists()) {
    std::vector<std::size_t>& edges = o.matcher_edges.emplace_back();
    for (const char* name : kMatchers) {
      core::MatchResult r;
      Result<core::MatchOptions> opt = core::resolve_algorithm(name);
      const bool ok =
          opt.ok() &&
          core::run_matching_into(legacy.pram_context(), list, *opt, r).ok();
      // A failed oracle run leaves an impossible count, so every timed
      // call of that matcher is reported wrong.
      edges.push_back(ok ? static_cast<std::size_t>(
                               static_cast<std::int64_t>(r.edges) + skew)
                         : list.size());
    }
    o.rank.push_back(apps::sequential_ranking(list));
  }
  pram::tuning().fused = fused;
  core::sequential_matching_into(inputs.blocked, o.blocked);
  llmp::Context ctx;
  for (const list::LinkedList& l : inputs.pool) {
    Result<core::MatchResult> r = llmp::run(ctx, kServedAlgorithm, l);
    o.served_edges.push_back(r.ok() ? r->edges : l.size());
    o.served_matching.push_back(r.ok() ? r->in_matching
                                       : std::vector<std::uint8_t>{});
  }
  return o;
}

}  // namespace perfbench
