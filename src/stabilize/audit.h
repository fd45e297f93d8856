// Integrity auditor — structured O(n) corruption scans over the raw
// arrays that everything else trusts blindly.
//
// The verify oracles (core/verify.h) answer "is this result correct?"
// with a throw or a boolean-ish Status. This auditor answers the harder
// operational question "*what* is wrong, and where?" so that
//
//   * the serve layer can fail a corrupted request with a kDataLoss
//     Status naming the first divergent node instead of "invalid list",
//   * the self-stabilizing repair engine (repair.h) can decide whether
//     a state is worth repairing (matching damage) or unrecoverable
//     (structural damage — the original links are gone),
//   * chaos tests can reconcile *named* injected damage against *named*
//     detected damage.
//
// Everything here takes raw arrays (`links`, `marks`, `m`, `ranks`), not
// list::LinkedList — the whole point is to scan state that may be too
// corrupt for LinkedList's constructor to accept. llmp_stabilize
// therefore depends only on llmp_support; list::LinkedList's validation
// is implemented on top of audit_structure, not the other way around.
//
// Every audit is O(n) and returns a CorruptionReport listing every
// finding in deterministic (node) order. audit_structure accepts any
// successor array shorter than knil; the other three audit derived state
// over a *valid* chain (what audit_structure passes) and LLMP_CHECK —
// throw check_error — that the second array has the chain's size, which
// is why the Status forms in core/verify.cpp catch check_error.
//
// audit_structure and audit_matching each pair with a fast verdict.
// list::chain_is_clean (list/ruler_walk.h) decides a successor array with
// one streaming pass and one ruler-segmented walk, without allocating;
// list::LinkedList runs audit_structure only when that verdict rejects
// the array, to name what is wrong.
//
// audit_matching, the check on every served answer, splits into a fast
// verdict and a slow report. The verdict is one index-order sweep with no
// branch on the marks and no allocation; a clean matching costs exactly
// that. Only when the sweep finds a defect does the three-pass report
// builder run to name it, so every report is the one the builder alone
// would give. The sweep is exact on a valid chain. On any other successor
// array it still reads only in bounds, but may call damaged marks clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"
#include "support/types.h"

namespace llmp::stabilize {

/// Everything the auditor can detect, one enumerator per failure shape.
enum class Corruption : std::uint8_t {
  // -- structure (the successor array itself) --
  kEmptyList,            ///< zero nodes (a list needs at least one)
  kSuccessorOutOfRange,  ///< links[v] >= n and != knil
  kSharedSuccessor,      ///< two nodes point at the same successor
  kNoTail,               ///< no knil successor anywhere (pure cycle)
  kMultipleTails,        ///< more than one knil successor (chain cut)
  kMultipleHeads,        ///< more than one node with no predecessor
  kCycle,                ///< node unreachable from the head (on a cycle)
  // -- matching (tail-side bitmap marks[v] over pointers <v, links[v]>) --
  kMarkOnTail,        ///< marks[v] set but v has no pointer
  kOverlappingMatch,  ///< node is an endpoint of two chosen pointers
  kNotMaximal,        ///< unchosen pointer with both endpoints free
  // -- match pointers (link-register m[v] in {knil, neighbor}) --
  kMatchOutOfRange,   ///< m[v] >= n and != knil
  kNonAdjacentMatch,  ///< m[v] is neither pred nor succ of v
  kAsymmetricMatch,   ///< m[v] == u but m[u] != v
  // -- ranks (distance-to-tail, rank[tail] == 0) --
  kRankOutOfRange,  ///< ranks[v] >= n
  kRankBroken,      ///< ranks[v] != ranks[links[v]] + 1 (or tail != 0)
};

const char* to_string(Corruption kind);

/// One detected defect: the kind, the node it anchors to (knil for
/// whole-list findings like kNoTail), and the offending value (the
/// out-of-range successor, the second predecessor, the bad rank, ...).
struct Finding {
  Corruption kind;
  index_t node = knil;
  std::uint64_t value = 0;

  /// "node 17: successor out of range (value 70000)".
  std::string to_string() const;
};

/// The auditor's verdict: every finding, in deterministic node order.
struct CorruptionReport {
  std::size_t n = 0;  ///< size of the audited array
  std::vector<Finding> findings;

  bool clean() const { return findings.empty(); }
  /// The first (lowest-anchor) finding; findings.front() but null-safe.
  const Finding* first() const {
    return findings.empty() ? nullptr : &findings.front();
  }
  /// Whether any finding is structural (successor-array damage): the
  /// original chain cannot be recovered by matching repair.
  bool structural() const;
  /// "clean", or "node 17: successor out of range (value 70000) [+2 more]".
  std::string summary() const;
  /// OK when clean; otherwise `code` carrying summary() as the message.
  Status to_status(StatusCode code = StatusCode::kDataLoss) const;
};

/// Audit a successor array: exactly one chain covering every node. The
/// same predicate as list::chain_is_clean and list::LinkedList::validate
/// (whose messages it writes), but reporting every defect instead of the
/// first.
CorruptionReport audit_structure(const std::vector<index_t>& links);

/// Audit a tail-side matching bitmap over a *valid* chain: marks[v] != 0
/// chooses pointer <v, links[v]>. Detects marks beyond the tail or range,
/// overlapping chosen pointers, and non-maximality. A clean bitmap costs
/// one sweep and no allocation (see the header comment). Throws
/// check_error unless marks.size() == links.size() < knil.
CorruptionReport audit_matching(const std::vector<index_t>& links,
                                const std::vector<std::uint8_t>& marks);

/// Audit link-register match pointers over a valid chain: m[v] is knil or
/// the matched neighbor. Detects out-of-range/non-adjacent/asymmetric
/// pointers — the states the repair engine's sanitize phase clears.
/// Passing this audit means m encodes a valid (not necessarily maximal)
/// matching. m.size() must equal links.size().
CorruptionReport audit_match_pointers(const std::vector<index_t>& links,
                                      const std::vector<index_t>& m);

/// Audit distance-to-tail ranks over a valid chain: ranks[tail] == 0 and
/// ranks[v] == ranks[links[v]] + 1. ranks.size() must equal links.size().
CorruptionReport audit_ranks(const std::vector<index_t>& links,
                             const std::vector<std::uint64_t>& ranks);

}  // namespace llmp::stabilize
