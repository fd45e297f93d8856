#include "core/verify.h"

#include <algorithm>

#include "stabilize/audit.h"
#include "support/check.h"

namespace llmp::core::verify {

void check_matching(const list::LinkedList& list,
                    const std::vector<std::uint8_t>& in_matching) {
  LLMP_CHECK(in_matching.size() == list.size());
  // Two pointers share a node iff they are consecutive along the list, so
  // a single ordered walk suffices.
  bool prev_chosen = false;
  for (index_t v = list.head(); v != knil; v = list.next(v)) {
    const bool has = list.has_pointer(v);
    const bool chosen = has && in_matching[v] != 0;
    LLMP_CHECK_MSG(!in_matching[v] || has,
                   "node " << v << " marks a non-existent pointer");
    LLMP_CHECK_MSG(!(prev_chosen && chosen),
                   "pointers <pre(" << v << ")," << v << "> and <" << v
                                    << ",suc> both chosen");
    prev_chosen = chosen;
  }
}

void check_maximal(const list::LinkedList& list,
                   const std::vector<std::uint8_t>& in_matching) {
  LLMP_CHECK(in_matching.size() == list.size());
  // covered[v]: v is an endpoint of a chosen pointer.
  std::vector<std::uint8_t> covered(list.size(), 0);
  for (index_t v = 0; v < list.size(); ++v) {
    if (in_matching[v]) {
      covered[v] = 1;
      covered[list.next(v)] = 1;
    }
  }
  for (index_t v = 0; v < list.size(); ++v) {
    if (!list.has_pointer(v) || in_matching[v]) continue;
    LLMP_CHECK_MSG(covered[v] || covered[list.next(v)],
                   "pointer <" << v << "," << list.next(v)
                               << "> could be added: not maximal");
  }
}

void check_one_of_three(const list::LinkedList& list,
                        const std::vector<std::uint8_t>& in_matching) {
  LLMP_CHECK(in_matching.size() == list.size());
  int gap = 0;
  for (index_t v = list.head(); v != knil; v = list.next(v)) {
    if (!list.has_pointer(v)) break;
    if (in_matching[v]) {
      gap = 0;
    } else {
      ++gap;
      LLMP_CHECK_MSG(gap <= 2, "three consecutive pointers unmatched at <"
                                   << v << "," << list.next(v) << ">");
    }
  }
}

void check_partition_labels(const list::LinkedList& list,
                            const std::vector<label_t>& labels) {
  LLMP_CHECK(labels.size() == list.size());
  if (list.size() <= 1) return;
  for (index_t v = 0; v < list.size(); ++v) {
    const index_t s = list.circular_next(v);
    LLMP_CHECK_MSG(labels[v] != labels[s],
                   "circular pointers at " << v << " and " << s
                                           << " share label " << labels[v]);
  }
}

void check_pointer_partition(const list::LinkedList& list,
                             const std::vector<label_t>& labels) {
  LLMP_CHECK(labels.size() == list.size());
  for (index_t v = 0; v < list.size(); ++v) {
    if (!list.has_pointer(v)) continue;
    const index_t s = list.next(v);
    if (!list.has_pointer(s)) continue;
    LLMP_CHECK_MSG(labels[v] != labels[s],
                   "adjacent pointers e_" << v << ", e_" << s
                                          << " share label " << labels[v]);
  }
}

std::size_t matching_size(const std::vector<std::uint8_t>& in_matching) {
  std::size_t count = 0;
  for (auto b : in_matching) count += (b != 0);
  return count;
}

namespace {

/// One auditor scan, with the size check's check_error as a Status.
Result<stabilize::CorruptionReport> audit(
    const list::LinkedList& list,
    const std::vector<std::uint8_t>& in_matching) {
  try {
    return stabilize::audit_matching(list.next_array(), in_matching);
  } catch (const check_error& e) {
    return Status::failed_verification(e.what());
  }
}

/// The validity or the maximality findings of `report` as a Status: the
/// message names the first divergent node and the failure shape.
Status share(stabilize::CorruptionReport report, bool maximality) {
  report.findings.erase(
      std::remove_if(report.findings.begin(), report.findings.end(),
                     [&](const stabilize::Finding& f) {
                       return (f.kind == stabilize::Corruption::kNotMaximal) !=
                              maximality;
                     }),
      report.findings.end());
  return report.to_status(StatusCode::kFailedVerification);
}

}  // namespace

Status matching_status(const list::LinkedList& list,
                       const std::vector<std::uint8_t>& in_matching) {
  Result<stabilize::CorruptionReport> report = audit(list, in_matching);
  return report.ok() ? share(std::move(*report), /*maximality=*/false)
                     : report.status();
}

Status maximal_status(const list::LinkedList& list,
                      const std::vector<std::uint8_t>& in_matching) {
  Result<stabilize::CorruptionReport> report = audit(list, in_matching);
  return report.ok() ? share(std::move(*report), /*maximality=*/true)
                     : report.status();
}

Status status(const list::LinkedList& list,
              const std::vector<std::uint8_t>& in_matching) {
  Result<stabilize::CorruptionReport> report = audit(list, in_matching);
  if (!report.ok() || report->clean()) return report.status();
  Status s = share(*report, /*maximality=*/false);
  return s.ok() ? share(std::move(*report), /*maximality=*/true) : s;
}

}  // namespace llmp::core::verify
