// Algorithm Match1 (paper §2; Han [6] / Cole–Vishkin [3]).
//
//   Step 1  label[v] := address of v
//   Step 2  repeat ~G(n) times: label[v] := f(label[v], label[suc(v)])
//   Step 3  cut <v, suc(v)> at label local minima
//   Step 4  walk each constant-length sublist, taking alternate pointers
//
// Time O(n·G(n)/p + G(n)) (Lemma 3): step 2 runs Θ(G(n)) synchronous
// steps of n processors. Not optimal — the whole point of the paper is to
// do better — but it is the building block every later algorithm reuses
// (Match3 and Match4 call steps 3–4 verbatim via cut.h).
#pragma once

#include "core/cut.h"
#include "core/match_result.h"
#include "core/partition_fn.h"
#include "list/linked_list.h"
#include "pram/context.h"

namespace llmp::core {

struct Match1Options {
  BitRule rule = BitRule::kMostSignificant;
  /// Run the EREW-legal variant (inbox fan-outs instead of neighbour
  /// reads): ~2x the steps, verified exclusive by pram::Machine.
  bool erew = false;
};

/// In-place entry point: reuses `r`'s buffers, and leases all scratch from
/// the executor's arena — zero heap allocations on a warm pram::Context.
template <class Exec>
void match1_into(Exec& exec, const list::LinkedList& list,
                 const Match1Options& opt, MatchResult& r) {
  PhaseClock clock(exec, r);
  const std::size_t n = list.size();

  auto pred_h = pram::scratch<index_t>(exec, n);
  std::vector<index_t>& pred = *pred_h;
  parallel_predecessors_into(exec, list, pred);
  clock.phase("pred");

  auto labels_h = pram::scratch<label_t>(exec, n);
  std::vector<label_t>& labels = *labels_h;
  init_address_labels(exec, n, labels);
  r.relabel_rounds =
      opt.erew ? reduce_to_constant_erew(exec, list, pred, labels, opt.rule)
               : reduce_to_constant(exec, list, labels, opt.rule,
                                    /*labels_are_addresses=*/true);
  r.partition_sets = distinct_labels(labels);
  clock.phase("reduce");

  r.cut = opt.erew
              ? cut_and_walk_erew(exec, list, pred, labels, kFixedPointBound,
                                  r.in_matching)
              : cut_and_walk(exec, list, pred, labels, kFixedPointBound,
                             r.in_matching);
  clock.phase("cut+walk");

  clock.finish();
}

template <class Exec>
MatchResult match1(Exec& exec, const list::LinkedList& list,
                   const Match1Options& opt = {}) {
  MatchResult r;
  match1_into(exec, list, opt, r);
  return r;
}

}  // namespace llmp::core
