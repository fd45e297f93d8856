// Kernel phase (see kernels.h).
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "apps/list_ranking.h"
#include "core/run.h"
#include "core/verify.h"
#include "kernels.h"
#include "stabilize/audit.h"

namespace perfbench {

using namespace llmp;

namespace {

// Span names are literals (SpanRecord never owns a name).
constexpr std::array<const char*, kMatchers.size()> kRunSpan = {
    "core.run_matching_into:sequential", "core.run_matching_into:match1",
    "core.run_matching_into:match2", "core.run_matching_into:match3",
    "core.run_matching_into:match4"};
constexpr std::array<const char*, kRankers.size()> kRankSpan = {
    "apps.sequential_ranking", "apps.wyllie_ranking",
    "apps.contraction_ranking"};
constexpr std::size_t kBlockedSlot = kMatchers.size() + kRankers.size();
/// A sample repeats one kernel until about this long, so calls on small
/// lists are not measured one timer read at a time.
constexpr std::int64_t kSampleNs = 2'000'000;
constexpr std::int64_t kMaxReps = 4096;
/// Blocks per blocked image; the cache holds 1/8 of them.
constexpr std::size_t kBlocksPerImage = 64;
constexpr std::size_t kCacheBlocks = kBlocksPerImage / 8;

/// Steps of one clock probe, about 1 ms on a 2 GHz core.
constexpr std::uint64_t kClockSteps = 500'000;
/// Cycles per clock-probe step: a 64-bit multiply (3-cycle latency) and an
/// add, each waiting on the one before.
constexpr double kCyclesPerStep = 4;

/// The running core's clock period in ns of thread CPU time, timed on a
/// chain of dependent multiply-adds whose cycle count the instruction
/// latencies fix. A virtual machine's host moves the core clock as its
/// other guests come and go (by 5-10% within minutes on the reference
/// host), and every kernel's time moves with it; dividing a sample's CPU
/// time by the period measured beside it takes out both that and the time
/// the host took the vCPU away.
double ns_per_cycle() {
  std::uint64_t x = 1;
  const Stamp t0 = Stamp::now();
  for (std::uint64_t i = 0; i < kClockSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    __asm__ __volatile__("" : "+r"(x));  // one step at a time, in order
  }
  const Stamp t1 = Stamp::now();
  __asm__ __volatile__("" : : "r"(x));
  return static_cast<double>(t1.cpu_ns - t0.cpu_ns) /
         (static_cast<double>(kClockSteps) * kCyclesPerStep);
}

/// The CPUs the calling thread may run on, and its current mask.
std::vector<int> allowed_cpus(cpu_set_t* mask) {
  std::vector<int> cpus;
  CPU_ZERO(mask);
  if (pthread_getaffinity_np(pthread_self(), sizeof *mask, mask) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, mask)) cpus.push_back(c);
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

}  // namespace

Kernels::Kernels(const Inputs& inputs, const Oracles& oracles,
                 const std::string& spill_dir)
    : lists_(inputs.kernel_lists()),
      blocked_list_(inputs.blocked),
      oracles_(oracles) {
  for (std::size_t k = 0; k < lists_.size(); ++k)
    ctxs_.push_back(std::make_unique<llmp::Context>());
  const list::LinkedList& blocked = inputs.blocked;
  engine::BlockConfig cfg;
  cfg.block_nodes = std::max<std::size_t>(1, blocked.size() / kBlocksPerImage);
  cfg.cache_blocks = kCacheBlocks;
  cfg.spill_dir = spill_dir;
  const std::int64_t t0 = now_ns();
  init_ok_ = blocked_.init(blocked, cfg).ok();
  init_s_ = seconds_between(t0, now_ns());
}

void Kernels::warm(Ledger& ledger) {
  Tracer off(false);
  for (cur_ = 0; cur_ < lists_.size(); ++cur_)
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      if (slot == kBlockedSlot && cur_ > 0) continue;
      const std::int64_t ns =
          std::max<std::int64_t>(1, run_slot(slot, off, 0, ledger).wall_ns);
      reps_[slot] = static_cast<std::size_t>(
          std::clamp<std::int64_t>(kSampleNs / ns, 1, kMaxReps));
    }
  cur_ = 0;
}

void Kernels::check_matching(std::size_t k, const core::MatchResult& r,
                             Ledger& ledger) const {
  const bool clean =
      stabilize::audit_matching(list().next_array(), r.in_matching).clean();
  if (!clean || r.edges != oracles_.matcher_edges[cur_][k]) ++ledger.wrong;
}

Stamp Kernels::run_matcher(std::size_t k, bool traced, Tracer& tracer,
                           std::uint64_t call, Ledger& ledger) {
  ++ledger.attempted;
  if (!traced) {
    const Stamp t0 = Stamp::now();
    Result<core::MatchResult> r = llmp::run(ctx(), kMatchers[k], list());
    const Stamp t1 = Stamp::now();
    if (!r.ok()) ++ledger.failed;
    else check_matching(k, *r, ledger);
    return t1 - t0;
  }
  // llmp::run unrolled into its public steps, one span each.
  Status s;
  const Stamp t0 = Stamp::now();
  {
    ScopedSpan call_span(tracer, "llmp.run", call);
    Result<core::MatchOptions> opt = [&] {
      ScopedSpan span(tracer, "core.resolve_algorithm", call);
      return core::resolve_algorithm(kMatchers[k]);
    }();
    s = opt.status();
    if (s.ok()) {
      ScopedSpan span(tracer, kRunSpan[k], call);
      s = core::run_matching_into(ctx().pram_context(), list(), *opt,
                                  match_out_);
    }
    if (s.ok()) {
      ScopedSpan span(tracer, "core.verify.matching_status", call);
      s = core::verify::matching_status(list(), match_out_.in_matching);
    }
    if (s.ok()) {
      ScopedSpan span(tracer, "core.verify.maximal_status", call);
      s = core::verify::maximal_status(list(), match_out_.in_matching);
    }
  }
  const Stamp t1 = Stamp::now();
  if (!s.ok()) ++ledger.failed;
  else check_matching(k, match_out_, ledger);
  return t1 - t0;
}

Stamp Kernels::run_ranker(std::size_t k, Tracer& tracer, std::uint64_t call,
                          Ledger& ledger) {
  ++ledger.attempted;
  std::vector<std::uint64_t> rank;
  const Stamp t0 = Stamp::now();
  {
    ScopedSpan span(tracer, kRankSpan[k], call);
    if (k == 0) {
      rank = apps::sequential_ranking(list());
    } else if (k == 1) {
      rank = apps::wyllie_ranking(ctx().pram_context(), list()).rank;
    } else {
      apps::RankingResult r = apps::contraction_ranking(ctx().pram_context(),
                                                        list());
      contraction_rounds_ = r.rounds;
      contraction_work_ = r.cost.work;
      rank = std::move(r.rank);
    }
  }
  const Stamp t1 = Stamp::now();
  if (rank != oracles_.rank[cur_]) ++ledger.wrong;
  return t1 - t0;
}

Stamp Kernels::run_blocked(Tracer& tracer, std::uint64_t call,
                           Ledger& ledger) {
  ++ledger.attempted;
  if (!init_ok_) {
    ++ledger.failed;
    return {};
  }
  blocked_.reset_stats();
  Status s;
  const Stamp t0 = Stamp::now();
  {
    ScopedSpan span(tracer, "engine.matching_into", call);
    s = blocked_.matching_into(match_out_);
  }
  const Stamp t1 = Stamp::now();
  engine_stats_ = blocked_.stats();
  if (!s.ok())
    ++ledger.failed;
  else if (match_out_.in_matching != oracles_.blocked.in_matching ||
           match_out_.edges != oracles_.blocked.edges)
    ++ledger.wrong;
  return t1 - t0;
}

Stamp Kernels::run_slot(std::size_t slot, Tracer& tracer, std::uint64_t call,
                        Ledger& ledger) {
  if (slot < kMatchers.size())
    return run_matcher(slot, tracer.enabled(), tracer, call, ledger);
  if (slot < kBlockedSlot)
    return run_ranker(slot - kMatchers.size(), tracer, call, ledger);
  return run_blocked(tracer, call, ledger);
}

void Kernels::measure(double seconds, Tracer& tracer, Ledger& ledger) {
  // Rounds rotate over the CPUs: on a virtual machine the vCPUs run at
  // different speeds (host cores shared with other guests), and a thread
  // left on one of them would carry that vCPU's speed into the figure.
  cpu_set_t saved;
  const std::vector<int> cpus = allowed_cpus(&saved);
  const std::size_t groups = std::max<std::size_t>(1, cpus.size());
  for (auto& per_cpu : cycles_) per_cpu.resize(groups);
  for (auto& per_cpu : ns_) per_cpu.resize(groups);
  auto arena = [&](bool hits) {
    std::uint64_t sum = 0;
    for (const auto& c : ctxs_)
      sum += hits ? c->arena().hits() : c->arena().takes();
    return sum;
  };
  const std::uint64_t takes0 = arena(false), hits0 = arena(true);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    // Each list, with its own Context, visits every CPU in turn.
    const std::size_t group = round_ % groups;
    if (!cpus.empty()) pin_to(cpus[group]);
    cur_ = (round_ / groups) % lists_.size();
    ++round_;
    // The clock is probed before and after the round's samples, on the
    // same CPU; each sample's CPU time is counted in cycles at the mean
    // of the two periods.
    const double clock_before = ns_per_cycle();
    std::array<Stamp, kSlots> took{};
    for (std::size_t slot = 0; slot < kSlots; ++slot)
      for (std::size_t r = 0; r < reps_[slot]; ++r)
        took[slot] += run_slot(slot, tracer, ++call_, ledger);
    const double clock = (clock_before + ns_per_cycle()) / 2;
    clock_ns_.push_back(clock);
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      const double nodes = static_cast<double>(
          reps_[slot] *
          (slot == kBlockedSlot ? blocked_list_.size() : list().size()));
      ns_[slot][group].push_back(static_cast<double>(took[slot].wall_ns) /
                                 nodes);
      cycles_[slot][group].push_back(static_cast<double>(took[slot].cpu_ns) /
                                     nodes / clock);
    }
  } while (now_ns() < end);
  if (!cpus.empty())
    pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
  arena_takes_ += arena(false) - takes0;
  arena_hits_ += arena(true) - hits0;
}

void Kernels::clear() {
  for (auto& per_cpu : cycles_) per_cpu.clear();
  for (auto& per_cpu : ns_) per_cpu.clear();
  clock_ns_.clear();
  arena_takes_ = arena_hits_ = 0;
}

double Kernels::per_node(const PerCpu& samples) {
  std::vector<double> per_cpu;
  for (const std::vector<double>& s : samples)
    if (!s.empty()) per_cpu.push_back(median(s));
  return per_cpu.empty() ? 0.0
                         : std::accumulate(per_cpu.begin(), per_cpu.end(),
                                           0.0) /
                               static_cast<double>(per_cpu.size());
}

void Kernels::report(Report& report, const Tracer& tracer) const {
  auto cycles = [&](std::size_t slot) { return per_node(cycles_[slot]); };
  auto name = [](std::size_t slot) -> std::string {
    if (slot < kMatchers.size()) return kMatchers[slot];
    if (slot < kBlockedSlot) return kRankers[slot - kMatchers.size()];
    return "blocked";
  };
  for (std::size_t slot = 0; slot < kSlots; ++slot)
    report.e2e("cycles_per_node." + name(slot), cycles(slot), "cycles/node");

  std::size_t samples = 0;
  for (const std::vector<double>& s : cycles_[0]) samples += s.size();
  say("kernel samples per kernel: " + std::to_string(samples) + " over " +
      std::to_string(cycles_[0].size()) +
      " CPUs (mean of per-CPU medians); calls per sample: sequential " +
      std::to_string(reps_[0]) + ", rank-sequential " +
      std::to_string(reps_[kMatchers.size()]) + ", blocked " +
      std::to_string(reps_[kBlockedSlot]));
  say("core clock over the kernel phase: median " +
      fmt(1 / median(clock_ns_)) + " GHz, quartiles " +
      fmt(1 / quantile(clock_ns_, 0.75)) + " to " +
      fmt(1 / quantile(clock_ns_, 0.25)) + " GHz over " +
      std::to_string(clock_ns_.size()) + " rounds");
  // Wall-clock time per node, and the sequential yardstick: derived
  // lines, not metrics.
  for (std::size_t slot = 0; slot < kSlots; ++slot)
    say("wall ns_per_node." + name(slot) + " = " + fmt(per_node(ns_[slot])) +
        " ns/node (printed, not gated)");
  for (std::size_t k = 1; k < kMatchers.size(); ++k)
    say("ratio cycles_per_node." + name(k) +
        " / cycles_per_node.sequential = " + fmt(cycles(k) / cycles(0)));
  for (std::size_t k = kMatchers.size() + 1; k < kBlockedSlot; ++k)
    say("ratio cycles_per_node." + name(k) +
        " / cycles_per_node.rank-sequential = " +
        fmt(cycles(k) / cycles(kMatchers.size())));

  if (!tracer.enabled()) return;
  const double n = static_cast<double>(list().size());
  for (std::size_t k = 0; k < kMatchers.size(); ++k)
    report.layer(std::string("core.run_ns_per_node.") + kMatchers[k],
                 median(tracer.durations(kRunSpan[k])) / n, "ns/node");
  const std::vector<double> a =
      tracer.durations("core.verify.matching_status");
  const std::vector<double> b = tracer.durations("core.verify.maximal_status");
  std::vector<double> verify(std::min(a.size(), b.size()));
  for (std::size_t i = 0; i < verify.size(); ++i) verify[i] = (a[i] + b[i]) / n;
  report.layer("core.verify_ns_per_node", median(verify), "ns/node");
  report.layer("pram.arena_hit_ratio",
               arena_takes_ == 0 ? 1.0
                                 : static_cast<double>(arena_hits_) /
                                       static_cast<double>(arena_takes_),
               "ratio");
  report.layer("apps.contraction.rounds", contraction_rounds_, "count");
  report.layer("apps.contraction.work",
               static_cast<double>(contraction_work_), "count");
  report.layer("engine.loads", static_cast<double>(engine_stats_.loads),
               "count");
  report.layer("engine.spills", static_cast<double>(engine_stats_.spills),
               "count");
  report.layer("engine.hit_ratio", engine_stats_.hit_rate(), "ratio");
  report.layer("engine.mailbox_posts",
               static_cast<double>(engine_stats_.mailbox_posts), "count");
}

}  // namespace perfbench
