// Linked list stored in an array, exactly as the paper's Fig. 1: nodes
// live in X[0..n-1] and NEXT[i] gives the array position of the node that
// follows X[i] in list order. A node is identified with its array address;
// the matching partition functions operate on those addresses.
//
// A list of n nodes has n−1 "pointers" <v, suc(v)>; the pointer is
// identified by its tail v. For labeling, the paper makes `suc` total by
// letting the last element's successor be the first ("we can define
// f(a, suc(a)) = f(a, b) where b is the first element"); circular_next()
// implements that convention. The matching itself is over the n−1 real
// pointers only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.h"
#include "support/status.h"
#include "support/types.h"

namespace llmp::list {

class LinkedList {
 public:
  /// Build from a successor array. next[i] == knil marks the tail;
  /// exactly one tail must exist and the links must form one chain
  /// covering all nodes (validated; throws check_error otherwise).
  explicit LinkedList(std::vector<index_t> next);

  /// Non-throwing factory for untrusted input (the public API / serve
  /// boundary): kInvalidArgument with the diagnostic instead of a throw.
  static Result<LinkedList> make(std::vector<index_t> next);

  /// Structure check alone: OK iff `next` encodes one chain over all
  /// nodes (the constructor would accept it).
  static Status validate(const std::vector<index_t>& next);

  /// The list with nodes in array order: next[i] = i+1.
  static LinkedList identity(std::size_t n);

  std::size_t size() const { return next_.size(); }
  /// Number of real pointers, n − 1 (0 for the empty/singleton list).
  std::size_t pointers() const {
    return next_.size() == 0 ? 0 : next_.size() - 1;
  }

  index_t head() const { return head_; }
  index_t tail() const { return tail_; }
  /// The successor array's digest, which seeds its rulers (ruler_walk.h).
  std::uint64_t seed() const { return seed_; }

  /// Successor of v; knil for the tail.
  index_t next(index_t v) const {
    LLMP_DCHECK(v < next_.size());
    return next_[v];
  }

  /// Successor under the paper's circular convention: suc(tail) = head.
  index_t circular_next(index_t v) const {
    const index_t s = next(v);
    return s == knil ? head_ : s;
  }

  /// Whether v is the tail of a real pointer <v, suc(v)>.
  bool has_pointer(index_t v) const { return next(v) != knil; }

  /// The whole array, for the PRAM passes' m.rd(next, v) accesses.
  const std::vector<index_t>& next_array() const { return next_; }

  /// Predecessor array: pred[next[v]] = v, pred[head] = knil. Computed on
  /// demand (one parallel step in the algorithms; here a plain loop since
  /// the list itself is input data, not part of any measured algorithm).
  std::vector<index_t> predecessors() const;

 private:
  LinkedList() = default;

  /// The structure check behind the constructor, validate() and make():
  /// one walk decides, and fills into's head, tail and seed if it accepts.
  static Status structure(const std::vector<index_t>& next, LinkedList& into);

  std::vector<index_t> next_;
  index_t head_ = knil;
  index_t tail_ = knil;
  std::uint64_t seed_ = 0;
};

}  // namespace llmp::list
