// Ruler-segmented walk: how the sequential matching, the sequential
// ranking and the list check chase a list in order.
//
// A single pointer chase waits out a whole cache miss per node. Cutting
// the list at rulers, as distributed list ranking does (Sanders et al.,
// "Engineering Scalable Distributed List Ranking", PAPERS.md), turns it
// into many short chases that can run side by side: the rulers are the
// head and every id that is a multiple of 2^shift, with shift chosen from
// n so there are at most 1024 multiples (and at least two segments on any
// list of 3 or more nodes). A segment runs from its ruler up to the next
// ruler or nil. kLanes segments are traced interleaved, one hop each per
// round, so kLanes independent misses are in flight at once; each
// segment records its length and the segment it runs into. One short
// walk over that table (order) then gives every segment its offset from
// the head, and a node's position is its segment's offset plus its
// distance from the segment's ruler.
//
// Every node is visited exactly once per walk, so a walk is still Θ(n).
// The table lives inside the RulerWalk object, on the caller's stack
// (about 12 KiB): a walk allocates nothing.
//
// The walk reads arrays that may not be a chain (the list check runs it
// on untrusted input), so it range-tests every successor, caps the visits
// at n in total and ends a segment on reaching the head; on any array it
// reads only in bounds and stops.
#pragma once

#include <cstddef>
#include <vector>

#include "pram/prefetch.h"
#include "support/types.h"

namespace llmp::list {

class RulerWalk {
 public:
  /// Segments traced at once.
  static constexpr std::size_t kLanes = 16;
  /// Most ruler multiples in any list; the head may add one segment.
  static constexpr index_t kMaxMultiples = 1024;

  struct Segment {
    index_t length;  ///< nodes from the ruler up to the next ruler or nil
    index_t next;    ///< the segment it runs into; knil when it ends at nil
    index_t offset;  ///< the ruler's distance from the head (after order)
  };

  /// Rulers for a list of n >= 1 nodes whose head is `head` < n.
  RulerWalk(std::size_t n, index_t head) : n_(n), head_(head) {
    while (((n - 1) >> shift_) >= kMaxMultiples) ++shift_;
    mask_ = (index_t{1} << shift_) - 1;
    multiples_ = static_cast<index_t>(((n - 1) >> shift_) + 1);
    const bool extra = (head & mask_) != 0;
    segments_ = multiples_ + (extra ? 1 : 0);
    head_segment_ = extra ? multiples_ : head >> shift_;
  }

  const Segment& segment(index_t s) const { return table_[s]; }

  /// Trace every segment s with take(s) true, kLanes at a time, calling
  /// visit(v, next[v], s, j) once per node v, where j is v's distance
  /// from the ruler of its segment s; each traced segment's length and
  /// successor segment are recorded. False when a successor is out of
  /// range (neither < n nor knil) or the visits would exceed n; a chain
  /// never does either. A visit that stores per node should prefetch
  /// the cell of next[v] too: the stores land at random and otherwise
  /// stall the walk.
  template <class Take, class Visit>
  bool walk(const index_t* next, Take&& take, Visit&& visit) {
    struct Lane {
      index_t v;    // node to visit next
      index_t seg;  // segment being traced
      index_t j;    // v's distance from the segment's ruler
    };
    Lane lanes[kLanes];
    index_t queued = 0;  // segments offered to take() so far
    auto start = [&](Lane& lane) {
      while (queued < segments_) {
        const index_t s = queued++;
        if (take(s)) {
          lane = {s < multiples_ ? s << shift_ : head_, s, 0};
          return true;
        }
      }
      return false;
    };
    std::size_t live = 0;
    while (live < kLanes && start(lanes[live])) ++live;
    std::size_t visits = 0;
    const auto n = static_cast<index_t>(n_);
    while (live != 0) {
      for (std::size_t k = 0; k < live; ++k) {
        Lane& lane = lanes[k];
        if (visits++ == n_) return false;
        const index_t v = lane.v;
        const index_t s = next[v];
        visit(v, s, lane.seg, lane.j++);
        // One test, no short-circuit branches: a segment ends about once
        // in 2^shift hops, and every mispredicted end throws away the
        // other lanes' loads in flight behind it.
        const bool inner = (s < n) & ((s & mask_) != 0) & (s != head_);
        if (inner) [[likely]] {
          pram::prefetch_ro(next + s);
          lane.v = s;
          continue;
        }
        // The segment ends: at nil, at a ruler, or out of range.
        if (s != knil && s >= n) return false;
        table_[lane.seg].length = lane.j;
        table_[lane.seg].next =
            s == knil ? knil : (s & mask_) != 0 ? head_segment_ : s >> shift_;
        if (!start(lane)) lane = lanes[--live];
      }
    }
    return true;
  }

  /// Offsets from the head, by one walk over the table along the chain
  /// of segments from the head's (every segment must have been traced).
  /// True iff that chain visits no segment twice, ends at nil and sums to
  /// n: then the segments, in chain order, are the list.
  bool order() {
    for (index_t s = 0; s < segments_; ++s) table_[s].offset = knil;
    std::size_t at = 0;
    for (index_t s = head_segment_; s != knil; s = table_[s].next) {
      if (table_[s].offset != knil) return false;
      table_[s].offset = static_cast<index_t>(at);
      at += table_[s].length;
    }
    return at == n_;
  }

 private:
  std::size_t n_;
  index_t head_;
  unsigned shift_ = 1;
  index_t mask_ = 1;
  index_t multiples_ = 0;
  index_t segments_ = 0;
  index_t head_segment_ = 0;
  Segment table_[kMaxMultiples + 1];
};

/// The list check's fast verdict: whether `next` is one chain over all
/// its nodes, exactly stabilize::audit_structure(next).clean(), from one
/// streaming pass and one ruler walk with no allocation. On true, head
/// and tail name the chain's ends (on false they are untouched). The
/// only candidate head is the XOR of every id and every non-nil
/// successor.
bool chain_is_clean(const std::vector<index_t>& next, index_t& head,
                    index_t& tail);

}  // namespace llmp::list
