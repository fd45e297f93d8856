// Property tests for the matching partition functions — Lemma 1 (f
// partitions n pointers into 2 log n matching sets), Lemma 2 (f^(k) yields
// 2·log^(k-1) n·(1+o(1)) sets), and the defining matching-partition
// property itself, for both bit rules. Also pins every registry matcher's
// partition_sets, on every backend, to a std::set count of its labels.
#include "core/partition_fn.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <string>

#include "core/gather.h"
#include "core/match2.h"
#include "core/match3.h"
#include "core/match4.h"
#include "core/registry.h"
#include "core/verify.h"
#include "list/generators.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/sweep.h"
#include "support/itlog.h"
#include "support/rng.h"

namespace llmp::core {
namespace {

class PartitionRule : public ::testing::TestWithParam<BitRule> {};

TEST_P(PartitionRule, MatchingPartitionProperty) {
  // m(a,b) != m(b,c) whenever a != b or b != c — exhaustively for small
  // values, randomized for large ones.
  const BitRule rule = GetParam();
  for (label_t a = 0; a < 40; ++a)
    for (label_t b = 0; b < 40; ++b)
      for (label_t c = 0; c < 40; ++c) {
        if (a == b || b == c) continue;
        ASSERT_NE(partition_value(a, b, rule), partition_value(b, c, rule))
            << a << "," << b << "," << c;
      }
  rng::Xoshiro256 gen(99);
  for (int t = 0; t < 20000; ++t) {
    const label_t a = gen.next(), b = gen.next(), c = gen.next();
    if (a == b || b == c) continue;
    ASSERT_NE(partition_value(a, b, rule), partition_value(b, c, rule));
  }
}

TEST_P(PartitionRule, ValueBoundLemma1) {
  // f < 2·ceil(log2 B) when inputs are < B.
  const BitRule rule = GetParam();
  rng::Xoshiro256 gen(5);
  for (label_t bound : {2ull, 6ull, 40ull, 1024ull, 1ull << 20}) {
    const label_t limit = partition_bound_after(bound);
    for (int t = 0; t < 2000; ++t) {
      const label_t a = gen.below(bound), b = gen.below(bound);
      if (a == b) continue;
      ASSERT_LT(partition_value(a, b, rule), limit) << a << "," << b;
    }
  }
}

TEST_P(PartitionRule, DirectionBitSeparatesForwardAndBackward) {
  // The parity of f tells pointer direction at the distinguishing bit:
  // f(<a,b>) and f(<b,a>) share k but differ in the low bit.
  const BitRule rule = GetParam();
  rng::Xoshiro256 gen(6);
  for (int t = 0; t < 2000; ++t) {
    const label_t a = gen.next(), b = gen.next();
    if (a == b) continue;
    const label_t fab = partition_value(a, b, rule);
    const label_t fba = partition_value(b, a, rule);
    EXPECT_EQ(fab >> 1, fba >> 1);
    EXPECT_NE(fab & 1, fba & 1);
  }
}

TEST_P(PartitionRule, RelabelKeepsCircularPartitionValid) {
  const BitRule rule = GetParam();
  for (std::size_t n : {2u, 3u, 10u, 1000u}) {
    const auto list = list::generators::random_list(n, n);
    pram::SeqExec exec(8);
    std::vector<label_t> labels;
    init_address_labels(exec, n, labels);
    for (int round = 0; round < 6; ++round) {
      std::vector<label_t> out(n);
      relabel(exec, list, labels, out, rule);
      labels.swap(out);
      verify::check_partition_labels(list, labels);
    }
  }
}

TEST_P(PartitionRule, Lemma1SetCountWithinBound) {
  const BitRule rule = GetParam();
  for (std::size_t n : {16u, 256u, 4096u, 65536u, 1u << 20}) {
    const auto list = list::generators::random_list(n, 2 * n + 1);
    pram::SeqExec exec(8);
    std::vector<label_t> labels;
    init_address_labels(exec, n, labels);
    std::vector<label_t> out(n);
    relabel(exec, list, labels, out, rule);
    const std::size_t sets = distinct_labels(out);
    EXPECT_LE(sets, 2 * static_cast<std::size_t>(itlog::ceil_log2(n)))
        << "n=" << n;
  }
}

TEST_P(PartitionRule, Lemma2IteratedSetCounts) {
  // After k rounds the labels are bounded by the k-fold image bound,
  // which is 2·log^(k) n up to rounding — Lemma 2 with f^(k+1).
  const BitRule rule = GetParam();
  const std::size_t n = 1 << 18;
  const auto list = list::generators::random_list(n, 77);
  pram::SeqExec exec(8);
  std::vector<label_t> labels;
  init_address_labels(exec, n, labels);
  label_t bound = n;
  for (int k = 1; k <= 5; ++k) {
    std::vector<label_t> out(n);
    relabel(exec, list, labels, out, rule);
    labels.swap(out);
    bound = partition_bound_after(bound);
    const std::size_t sets = distinct_labels(labels);
    EXPECT_LE(sets, bound) << "k=" << k;
    // The bound is 2·ceil(log2 ...) of the previous bound — compare
    // against the paper's closed form within its (1+o(1)) slack.
    const double formula = 2 * itlog::ilog_real(k, static_cast<double>(n));
    if (formula > 2)
      EXPECT_LE(static_cast<double>(sets), 2.5 * formula + 8) << "k=" << k;
  }
}

TEST_P(PartitionRule, ReduceToConstantHitsFixedPoint) {
  const BitRule rule = GetParam();
  for (std::size_t n : {2u, 7u, 100u, 40000u, 1u << 20}) {
    const auto list = list::generators::random_list(n, 3 * n);
    pram::SeqExec exec(8);
    std::vector<label_t> labels;
    init_address_labels(exec, n, labels);
    const int rounds = reduce_to_constant(exec, list, labels, rule);
    for (label_t l : labels) EXPECT_LT(l, kFixedPointBound);
    verify::check_partition_labels(list, labels);
    // Θ(G(n)): the bound-iteration count tracks G(n) within a constant.
    EXPECT_LE(rounds, itlog::G(n) + 3) << "n=" << n;
    if (n > 6) EXPECT_GE(rounds, itlog::G(n) - 2) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Rules, PartitionRule,
                         ::testing::Values(BitRule::kMostSignificant,
                                           BitRule::kLeastSignificant),
                         [](const auto& info) {
                           return info.param == BitRule::kMostSignificant
                                      ? "MSB"
                                      : "LSB";
                         });

// A one-node list is its own circular successor, so a relabel round would
// give its node kno_label, which no layout has a row for. Both drivers
// leave it alone, as reduce_to_constant does, on every backend.
TEST(PartitionFn, OneNodeListKeepsLabelZeroThroughBothDrivers) {
  const auto list = list::generators::identity_list(1);
  const std::vector<index_t> pred = list.predecessors();
  for (const BitRule rule :
       {BitRule::kMostSignificant, BitRule::kLeastSignificant}) {
    for (const int rounds : {1, 2, 3}) {
      SCOPED_TRACE("rounds " + std::to_string(rounds));
      pram::SeqExec seq(8);
      pram::Machine crew(pram::Mode::kCREW, 8);
      pram::Machine erew(pram::Mode::kEREW, 8);
      std::vector<label_t> fused{0}, fused_addresses{0}, machine{0},
          erew_seq{0}, erew_machine{0};
      relabel_rounds(seq, list, fused, rounds, rule);
      relabel_rounds(seq, list, fused_addresses, rounds, rule,
                     /*labels_are_addresses=*/true);
      relabel_rounds(crew, list, machine, rounds, rule);
      relabel_rounds_erew(seq, list, pred, erew_seq, rounds, rule);
      relabel_rounds_erew(erew, list, pred, erew_machine, rounds, rule);
      for (const auto* labels :
           {&fused, &fused_addresses, &machine, &erew_seq, &erew_machine})
        EXPECT_EQ(*labels, std::vector<label_t>{0});
    }
  }
}

TEST(PartitionFn, MsbRuleMatchesBisectionIntuition) {
  // Fig. 2: for the MSB rule, k = msb(a XOR b) identifies the largest
  // power-of-two boundary ("bisecting line") separating a from b: a and b
  // agree on all bits above k, so both lie in the same 2^(k+1)-aligned
  // block, and differ at k, so 'the' line inside that block separates
  // them.
  rng::Xoshiro256 gen(8);
  for (int t = 0; t < 5000; ++t) {
    const label_t a = gen.below(1 << 20), b = gen.below(1 << 20);
    if (a == b) continue;
    const int k = bits::msb_index(a ^ b);
    EXPECT_EQ(a >> (k + 1), b >> (k + 1));
    EXPECT_NE((a >> k) & 1, (b >> k) & 1);
  }
}

TEST(PartitionFn, ForwardPointersCrossingOneLineHaveDisjointEndpoints) {
  // The Fig. 2 observation itself: forward pointers crossing the same
  // bisecting line form a matching (disjoint heads and tails).
  const std::size_t n = 1 << 12;
  const auto list = list::generators::random_list(n, 4);
  // Group *forward* pointers by f (same f ⇒ same line, same direction).
  std::map<label_t, std::vector<index_t>> groups;
  for (index_t v = 0; v < n; ++v) {
    const index_t s = list.next(v);
    if (s == knil) continue;
    groups[partition_value(v, s, BitRule::kMostSignificant)].push_back(v);
  }
  for (const auto& [value, tails] : groups) {
    std::set<index_t> touched;
    for (index_t v : tails) {
      EXPECT_TRUE(touched.insert(v).second) << "value " << value;
      EXPECT_TRUE(touched.insert(list.next(v)).second) << "value " << value;
    }
  }
}

TEST(PartitionFn, DistinctLabelsCountsAnyInput) {
  // Labels below 128 take the presence pass, any other input the sort;
  // both must agree with std::set on either side of the line.
  rng::Xoshiro256 gen(12);
  for (const label_t range : {label_t{6}, label_t{128}, label_t{129},
                              label_t{1000}, label_t{1} << 40}) {
    for (const std::size_t n : {0u, 1u, 7u, 128u, 500u}) {
      std::vector<label_t> labels(n);
      for (label_t& l : labels) l = gen.below(range);
      const std::size_t want =
          std::set<label_t>(labels.begin(), labels.end()).size();
      EXPECT_EQ(distinct_labels(labels), want) << range << " " << n;
    }
  }
  std::vector<label_t> addresses(1000);
  std::iota(addresses.begin(), addresses.end(), label_t{0});
  EXPECT_EQ(distinct_labels(addresses), 1000u);
}

// ---- partition_sets on every registry matcher and backend. ---------------

/// The labels a registry matcher counts as partition_sets, recomputed
/// from the public building blocks with fusion off.
std::vector<label_t> counted_labels(const list::LinkedList& list,
                                    const MatchOptions& opt) {
  const pram::SweepTuning saved = pram::tuning();
  pram::tuning().fused = false;
  const std::size_t n = list.size();
  pram::SeqExec exec(64);
  std::vector<label_t> labels;
  init_address_labels(exec, n, labels);
  auto crunch_then_probe = [&](int crunch, int bits, int width, int gather) {
    relabel_rounds(exec, list, labels, crunch, opt.rule);
    const MatchingLookupTable& table =
        cached_lookup_table(bits, 1 << gather, opt.rule, width);
    gather_labels(exec, list, labels, bits, gather);
    lookup_labels(exec, table, labels);
  };
  if (n > 1) {
    switch (opt.algorithm) {
      case Algorithm::kMatch1:
        reduce_to_constant(exec, list, labels, opt.rule);
        break;
      case Algorithm::kMatch2:
        relabel_rounds(exec, list, labels, Match2Options{}.partition_rounds,
                       opt.rule);
        break;
      case Algorithm::kMatch3: {
        const Match3Plan plan = plan_match3(n, Match3Options{.rule = opt.rule});
        if (plan.needs_table) {
          crunch_then_probe(plan.crunch_rounds, plan.component_bits,
                            plan.collapse_width, plan.gather_rounds);
        } else {
          relabel_rounds(exec, list, labels, plan.crunch_rounds, opt.rule);
        }
        break;
      }
      case Algorithm::kMatch4: {
        Match4Options o;
        o.i_parameter = opt.i_parameter;
        o.partition_with_table = opt.partition_with_table && !opt.erew;
        o.rule = opt.rule;
        const Match4Plan plan = plan_match4(n, o);
        if (plan.uses_table) {
          crunch_then_probe(plan.crunch_rounds, plan.component_bits,
                            plan.collapse_width, plan.gather_rounds);
        } else {
          relabel_rounds(exec, list, labels, opt.i_parameter, opt.rule);
        }
        break;
      }
      default:
        ADD_FAILURE() << "no partition step: " << to_string(opt.algorithm);
    }
  }
  pram::tuning() = saved;
  return labels;
}

enum class Backend { kFused, kLegacy, kMachine };

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kFused: return "fused";
    case Backend::kLegacy: return "legacy";
    case Backend::kMachine: return "machine";
  }
  return "?";
}

std::size_t partition_sets_on(Backend backend, const AlgorithmEntry& entry,
                              const list::LinkedList& list) {
  const pram::SweepTuning saved = pram::tuning();
  pram::tuning().fused = backend != Backend::kLegacy;
  MatchResult out;
  const MatchDispatcher& dispatch =
      AlgorithmRegistry::instance().match_dispatcher();
  if (backend == Backend::kMachine) {
    pram::Machine machine(entry.declared, 64);
    pram::Context ctx(machine);
    dispatch.run(ctx, list, entry.canonical, out);
  } else {
    pram::SeqExec seq(64);
    pram::Context ctx(seq);
    dispatch.run(ctx, list, entry.canonical, out);
  }
  pram::tuning() = saved;
  return out.partition_sets;
}

TEST(PartitionFn, PartitionSetsCountTheLabelsOnEveryBackend) {
  auto stride_for = [](std::size_t n) {
    std::size_t s = 7;
    while (std::gcd(s, n) != 1) s += 2;
    return s;
  };
  for (const AlgorithmEntry* entry : AlgorithmRegistry::instance().entries()) {
    const Algorithm a = entry->canonical.algorithm;
    if (!entry->matching || a == Algorithm::kSequential ||
        a == Algorithm::kRandomized)
      continue;
    for (const std::size_t n : {1u, 2u, 3u, 5u, 6u, 7u, 1023u, 1024u, 1025u,
                                65536u}) {
      const std::pair<const char*, list::LinkedList> shapes[] = {
          {"random", list::generators::random_list(n, n + 3)},
          {"identity", list::generators::identity_list(n)},
          {"reverse", list::generators::reverse_list(n)},
          {"strided", list::generators::strided_list(n, stride_for(n))}};
      for (const auto& [shape, lst] : shapes) {
        const std::vector<label_t> labels =
            counted_labels(lst, entry->canonical);
        const std::size_t want =
            std::set<label_t>(labels.begin(), labels.end()).size();
        for (const Backend b :
             {Backend::kFused, Backend::kLegacy, Backend::kMachine})
          EXPECT_EQ(partition_sets_on(b, *entry, lst), want)
              << entry->name << " " << shape << " n=" << n << " "
              << to_string(b);
      }
    }
  }
}

}  // namespace
}  // namespace llmp::core
