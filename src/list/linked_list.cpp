#include "list/linked_list.h"

#include <utility>

#include "list/ruler_walk.h"
#include "stabilize/audit.h"

namespace llmp::list {

Status LinkedList::structure(const std::vector<index_t>& next,
                             LinkedList& into) {
  // One allocation-free ruler walk accepts a chain and finds its ends.
  // Only a rejected array goes to the integrity auditor, whose report
  // names the first divergent node and what is wrong with it
  // (stabilize/audit.h) instead of a bare "invalid list".
  if (chain_is_clean(next, into.head_, into.tail_, into.seed_)) return {};
  return Status::invalid_argument("invalid successor array — " +
                                  stabilize::audit_structure(next).summary());
}

LinkedList::LinkedList(std::vector<index_t> next)
    : next_(std::move(next)) {
  const Status s = structure(next_, *this);
  LLMP_CHECK_MSG(s.ok(), s.message());
}

Result<LinkedList> LinkedList::make(std::vector<index_t> next) {
  LinkedList l;
  if (Status s = structure(next, l); !s.ok()) return s;
  l.next_ = std::move(next);
  return l;
}

Status LinkedList::validate(const std::vector<index_t>& next) {
  LinkedList scratch;
  return structure(next, scratch);
}

LinkedList LinkedList::identity(std::size_t n) {
  LLMP_CHECK(n >= 1);
  std::vector<index_t> next(n);
  for (std::size_t i = 0; i + 1 < n; ++i) next[i] = static_cast<index_t>(i + 1);
  next[n - 1] = knil;
  return LinkedList(std::move(next));
}

std::vector<index_t> LinkedList::predecessors() const {
  const std::size_t n = size();
  std::vector<index_t> result(n, knil);
  for (index_t v = 0; v < n; ++v) {
    const index_t s = next(v);
    if (s != knil) result[s] = v;
  }
  return result;
}

}  // namespace llmp::list
