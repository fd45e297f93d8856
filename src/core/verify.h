// Correctness oracles. The check_* functions are deliberately simple
// sequential checks — independent of the PRAM machinery they audit and of
// the structured auditor (stabilize/audit.h) — that throw check_error.
// Every test and the benches' self-checks use them, and they referee the
// auditor's fast verdict. The Status forms at the bottom are the
// auditor's verdict instead, for callers that must not throw.
#pragma once

#include <cstdint>
#include <vector>

#include "list/linked_list.h"
#include "support/status.h"
#include "support/types.h"

namespace llmp::core::verify {

/// A matching is given as in_matching[v] == 1 for chosen pointers
/// <v, suc(v)> (v must have a real pointer). Throws check_error with a
/// diagnostic if two chosen pointers share a node.
void check_matching(const list::LinkedList& list,
                    const std::vector<std::uint8_t>& in_matching);

/// Throws unless the matching is maximal: every unchosen pointer has at
/// least one endpoint covered by a chosen pointer.
void check_maximal(const list::LinkedList& list,
                   const std::vector<std::uint8_t>& in_matching);

/// The paper's maximality witness: of any three consecutive pointers at
/// least one is in the matching. Implies maximality for paths; checked
/// separately because Match1's analysis promises it directly.
void check_one_of_three(const list::LinkedList& list,
                        const std::vector<std::uint8_t>& in_matching);

/// Throws unless labels[v] != labels[suc(v)] for every *circular* pointer
/// — i.e. the labels form a valid (circular) matching partition.
void check_partition_labels(const list::LinkedList& list,
                            const std::vector<label_t>& labels);

/// Throws unless labels restricted to real pointers are a valid matching
/// partition: adjacent real pointers e_v, e_{suc(v)} get different labels.
void check_pointer_partition(const list::LinkedList& list,
                             const std::vector<label_t>& labels);

/// Number of chosen pointers.
std::size_t matching_size(const std::vector<std::uint8_t>& in_matching);

/// Status forms of the two headline oracles for public entry points (the
/// serve layer and llmp::run check results instead of aborting a
/// server). They do not rerun the checks above: each is one
/// stabilize::audit_matching call (its fast verdict, then its report only
/// on a defect) filtered by kind. matching_status keeps the validity
/// findings (kMarkOnTail, kOverlappingMatch), maximal_status the
/// maximality ones (kNotMaximal), and a non-empty share comes back as
/// kFailedVerification naming its first node. Neither throws: the
/// auditor's check_error on a wrong-sized bitmap comes back as
/// kFailedVerification too. The list is a LinkedList, so the auditor's
/// valid-chain precondition holds.
Status matching_status(const list::LinkedList& list,
                       const std::vector<std::uint8_t>& in_matching);
Status maximal_status(const list::LinkedList& list,
                      const std::vector<std::uint8_t>& in_matching);

/// matching_status followed by maximal_status, from one audit: the same
/// code and message those two calls return, for the price of one sweep.
Status status(const list::LinkedList& list,
              const std::vector<std::uint8_t>& in_matching);

}  // namespace llmp::core::verify
