#include "stabilize/audit.h"

#include <algorithm>
#include <sstream>

#include "support/bits.h"
#include "support/check.h"

namespace llmp::stabilize {

const char* to_string(Corruption kind) {
  switch (kind) {
    case Corruption::kEmptyList: return "empty list";
    case Corruption::kSuccessorOutOfRange: return "successor out of range";
    case Corruption::kSharedSuccessor: return "node has two predecessors";
    case Corruption::kNoTail: return "no tail (links contain a cycle)";
    case Corruption::kMultipleTails: return "more than one tail";
    case Corruption::kMultipleHeads: return "more than one head (disjoint chains)";
    case Corruption::kCycle: return "unreachable from the head (cycle present)";
    case Corruption::kMarkOnTail: return "matching marks a non-existent pointer";
    case Corruption::kOverlappingMatch: return "node covered by two chosen pointers";
    case Corruption::kNotMaximal: return "unchosen pointer with both endpoints free (not maximal)";
    case Corruption::kMatchOutOfRange: return "match pointer out of range";
    case Corruption::kNonAdjacentMatch: return "match pointer to a non-neighbor";
    case Corruption::kAsymmetricMatch: return "match pointer not reciprocated";
    case Corruption::kRankOutOfRange: return "rank out of range";
    case Corruption::kRankBroken: return "rank does not step by one toward the tail";
  }
  return "?";
}

std::string Finding::to_string() const {
  std::ostringstream os;
  if (node == knil) {
    os << "list";
  } else {
    os << "node " << node;
  }
  os << ": " << stabilize::to_string(kind) << " (value " << value << ")";
  return os.str();
}

bool CorruptionReport::structural() const {
  for (const Finding& f : findings) {
    if (f.kind <= Corruption::kCycle) return true;
  }
  return false;
}

std::string CorruptionReport::summary() const {
  if (clean()) return "clean";
  std::string s = findings.front().to_string();
  if (findings.size() > 1) {
    s += " [+" + std::to_string(findings.size() - 1) + " more]";
  }
  return s;
}

Status CorruptionReport::to_status(StatusCode code) const {
  if (clean()) return {};
  return Status(code, summary());
}

namespace {

/// Deterministic report order: lowest anchor node first (knil — the
/// whole-list findings — last), ties by kind. The "first divergent node"
/// a Status message names is then stable across runs and platforms.
void finish(CorruptionReport& report) {
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.node != b.node) return a.node < b.node;
                     return a.kind < b.kind;
                   });
}

}  // namespace

CorruptionReport audit_structure(const std::vector<index_t>& links) {
  CorruptionReport report;
  const std::size_t n = links.size();
  report.n = n;
  auto add = [&report](Corruption kind, index_t node, std::uint64_t value) {
    report.findings.push_back({kind, node, value});
  };
  if (n == 0) {
    add(Corruption::kEmptyList, knil, 0);
    return report;
  }
  LLMP_CHECK(n < static_cast<std::size_t>(knil));
  // Pass 1: tails, range, in-degrees.
  std::vector<std::uint8_t> indeg(n, 0);
  index_t first_tail = knil;
  for (index_t v = 0; v < n; ++v) {
    const index_t s = links[v];
    if (s == knil) {
      if (first_tail == knil) {
        first_tail = v;
      } else {
        add(Corruption::kMultipleTails, v, first_tail);
      }
    } else if (s >= n) {
      add(Corruption::kSuccessorOutOfRange, v, s);
    } else if (indeg[s] != 0) {
      add(Corruption::kSharedSuccessor, s, v);
    } else {
      indeg[s] = 1;
    }
  }
  if (first_tail == knil) add(Corruption::kNoTail, knil, 0);
  // Pass 2: heads (nodes with no in-range predecessor).
  index_t first_head = knil;
  for (index_t v = 0; v < n; ++v) {
    if (indeg[v] != 0) continue;
    if (first_head == knil) {
      first_head = v;
    } else {
      add(Corruption::kMultipleHeads, v, first_head);
    }
  }
  // Pass 3: reachability from the head — anything unreached sits on a
  // cycle (or hangs off one). A pure cycle has no head; kNoTail already
  // covers it, so skip the walk.
  if (first_head != knil) {
    std::vector<std::uint8_t> seen(n, 0);
    std::uint64_t reached = 0;
    for (index_t v = first_head; v != knil && v < n && seen[v] == 0;
         v = links[v]) {
      seen[v] = 1;
      ++reached;
    }
    for (index_t v = 0; v < n; ++v) {
      if (seen[v] == 0) {
        add(Corruption::kCycle, v, reached);
        break;  // one witness; the repair story is the same for all
      }
    }
  }
  finish(report);
  return report;
}

namespace {

/// The fast verdict: whether `marks` is a valid maximal matching of the
/// chain `links`, from one index-order sweep with no allocation and no
/// branch on the marks. On a path, maximality is local to three
/// consecutive pointers (Match1's one-of-three witness), so each node u,
/// with s1 = links[u] and s2 = links[s1], rejects
///   * u marked with no pointer (kMarkOnTail): u's gathers then re-read u,
///     so the test below sees u "overlap" itself,
///   * u and s1 both marked: pointers <u,s1> and <s1,s2> share s1
///     (kOverlappingMatch),
///   * u, s1 and s2 all unmarked while s1 has a pointer: <s1,s2> is
///     unchosen with both ends free (kNotMaximal).
/// Every pointer but the head's has a predecessor u to witness it. The
/// head is the one id no pointer reaches: every id XOR every in-range
/// successor, here every successor XOR the single tail's knil. Its own
/// pointer is checked after the sweep.
///
/// Exact on a valid chain, where the only range tests that fail are at
/// the tail and its predecessor. Any other links array is still read in
/// bounds (each gather index is range-tested first), but the verdict is
/// then unspecified.
bool matching_is_clean(const index_t* links, const std::uint8_t* marks,
                       index_t n) {
  if (n == 0) return true;
  std::uint32_t bad = 0;
  index_t successors = 0;
  for (index_t u = 0; u < n; ++u) {
    const index_t s1 = links[u];
    const index_t g1 = s1 < n ? s1 : u;
    const index_t s2 = links[g1];  // out of range whenever s1 is
    const std::uint32_t has2 = s2 < n;
    const index_t g2 = has2 != 0 ? s2 : u;
    const std::uint8_t mu = marks[u];
    const std::uint8_t m1 = marks[g1];
    const std::uint8_t m2 = marks[g2];
    bad |= (static_cast<std::uint32_t>(mu != 0) &
            static_cast<std::uint32_t>(m1 != 0)) |
           (has2 & static_cast<std::uint32_t>((mu | m1 | m2) == 0));
    successors ^= s1;
  }
  const index_t head = bits::xor_through(n - 1) ^ successors ^ knil;
  if (head >= n) return false;  // not a chain: let the report decide
  const index_t s = links[head];
  const index_t g = s < n ? s : head;
  bad |= static_cast<std::uint32_t>(s < n) &
         static_cast<std::uint32_t>((marks[head] | marks[g]) == 0);
  return bad == 0;
}

}  // namespace

CorruptionReport audit_matching(const std::vector<index_t>& links,
                                const std::vector<std::uint8_t>& marks) {
  CorruptionReport report;
  const std::size_t n = links.size();
  report.n = n;
  LLMP_CHECK(marks.size() == n);
  LLMP_CHECK(n < static_cast<std::size_t>(knil));
  if (matching_is_clean(links.data(), marks.data(), static_cast<index_t>(n)))
    return report;
  // The report builder, run only when the sweep found a defect. Endpoint
  // cover counts; a valid matching covers every node at most once.
  std::vector<std::uint8_t> covered(n, 0);
  for (index_t v = 0; v < n; ++v) {
    if (marks[v] == 0) continue;
    const index_t s = links[v];
    if (s == knil || s >= n) {
      report.findings.push_back({Corruption::kMarkOnTail, v, s});
      continue;
    }
    if (covered[v] < 2) ++covered[v];
    if (covered[s] < 2) ++covered[s];
  }
  for (index_t v = 0; v < n; ++v) {
    if (covered[v] >= 2) {
      report.findings.push_back({Corruption::kOverlappingMatch, v, covered[v]});
    }
  }
  for (index_t v = 0; v < n; ++v) {
    const index_t s = links[v];
    if (s == knil || s >= n || marks[v] != 0) continue;
    if (covered[v] == 0 && covered[s] == 0) {
      report.findings.push_back({Corruption::kNotMaximal, v, s});
    }
  }
  finish(report);
  return report;
}

CorruptionReport audit_match_pointers(const std::vector<index_t>& links,
                                      const std::vector<index_t>& m) {
  CorruptionReport report;
  const std::size_t n = links.size();
  report.n = n;
  LLMP_CHECK(m.size() == n);
  for (index_t v = 0; v < n; ++v) {
    const index_t u = m[v];
    if (u == knil) continue;
    if (u >= n) {
      report.findings.push_back({Corruption::kMatchOutOfRange, v, u});
      continue;
    }
    const bool adjacent = u != v && (links[v] == u || links[u] == v);
    if (!adjacent) {
      report.findings.push_back({Corruption::kNonAdjacentMatch, v, u});
    } else if (m[u] != v) {
      report.findings.push_back({Corruption::kAsymmetricMatch, v, u});
    }
  }
  finish(report);
  return report;
}

CorruptionReport audit_ranks(const std::vector<index_t>& links,
                             const std::vector<std::uint64_t>& ranks) {
  CorruptionReport report;
  const std::size_t n = links.size();
  report.n = n;
  LLMP_CHECK(ranks.size() == n);
  for (index_t v = 0; v < n; ++v) {
    if (ranks[v] >= n) {
      report.findings.push_back({Corruption::kRankOutOfRange, v, ranks[v]});
      continue;
    }
    const index_t s = links[v];
    if (s == knil) {
      if (ranks[v] != 0) {
        report.findings.push_back({Corruption::kRankBroken, v, ranks[v]});
      }
    } else if (s < n && ranks[s] < n && ranks[v] != ranks[s] + 1) {
      report.findings.push_back({Corruption::kRankBroken, v, ranks[v]});
    }
  }
  finish(report);
  return report;
}

}  // namespace llmp::stabilize
