// The ruler rule, for the in-core walk (RulerWalk: the sequential
// matching, the sequential ranking and the list check) and the block
// engine (engine::BlockedMatcher). Cutting a list at rulers (Sanders et
// al., "Engineering Scalable Distributed List Ranking", PAPERS.md) turns
// one pointer chase into many short chases that run side by side. The
// rulers are the head and, in each aligned window w of 2^shift ids, the
// id at offset SplitMix64(seed ^ w) & mask, seeded by the list's own
// digest, so an order laid out against a fixed rule meets them at random
// (one laid out against its own seed is the honest worst case). A
// segment runs from its ruler up to the next ruler or nil; the table has
// one entry per window, then the head's, and order() walks it once to
// give each segment its offset from the head. On untrusted arrays (the
// list check's) the walk range-tests every successor, bounds the table
// index it derives from one, caps the visits at n and ends a segment at
// the head, so it reads only in bounds and stops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pram/prefetch.h"
#include "support/rng.h"
#include "support/types.h"

namespace llmp::list {

struct Segment {
  index_t ruler;   ///< the node it starts at; ≥ n: the window cuts nothing
  index_t length;  ///< nodes from the ruler up to the next ruler or nil
  index_t next;    ///< entry of the segment it runs into; knil at nil
  index_t offset;  ///< the ruler's distance from the head (after order)
};

struct Rulers {
  unsigned shift = 0;      ///< log2 of the window width
  std::uint64_t seed = 0;  ///< LinkedList::seed() of the list

  /// The smallest shift leaving at most max_windows ≥ 1 windows of n ids.
  static unsigned shift_for(std::size_t n, std::uint64_t max_windows) {
    unsigned s = 0;
    while (((n - 1) >> s) >= max_windows) ++s;
    return s;
  }

  std::size_t windows(std::size_t n) const { return ((n - 1) >> shift) + 1; }

  /// The ruler of window w (masked, so shift 0 is well defined).
  std::uint64_t ruler(std::uint64_t w) const {
    const std::uint64_t mask = (std::uint64_t{1} << shift) - 1;
    return (w << shift) | (rng::SplitMix64(seed ^ w).next() & mask);
  }

  /// Fill the rulers of a table of windows + 1 entries, the last the
  /// head's; returns the head's entry (its window's if it is its ruler).
  index_t cut(index_t head, std::span<Segment> table) const {
    const std::size_t windows = table.size() - 1;
    for (std::size_t w = 0; w < windows; ++w)
      table[w].ruler = static_cast<index_t>(ruler(w));
    table[windows].ruler = head;
    const index_t own = head >> shift;
    return table[own].ruler == head ? own : static_cast<index_t>(windows);
  }
};

/// Offsets from the head, by one walk along the chain of segments from
/// entry `head`. True iff that chain visits no entry twice, ends at nil
/// and sums to n: then the segments, in chain order, are the list.
inline bool order(std::span<Segment> table, index_t head, std::size_t n) {
  for (Segment& seg : table) seg.offset = knil;
  std::size_t at = 0;
  for (index_t s = head; s != knil; s = table[s].next) {
    if (table[s].offset != knil) return false;
    table[s].offset = static_cast<index_t>(at);
    at += table[s].length;
  }
  return at == n;
}

class RulerWalk {
 public:
  /// Segments traced at once, one hop each per round.
  static constexpr std::size_t kLanes = 16;
  /// Most windows in any walk, 2^kWindowBits (the head may add one).
  static constexpr unsigned kWindowBits = 10;
  static constexpr std::size_t kMaxWindows = std::size_t{1} << kWindowBits;

  /// The rule a walk over n ≥ 1 ids cuts at: windows of at least 256
  /// ids on average, once there are two.
  static Rulers rulers_for(std::size_t n, std::uint64_t seed) {
    const std::size_t most = std::clamp<std::size_t>(n / 256, 2, kMaxWindows);
    return {Rulers::shift_for(n, most), seed};
  }

  /// Rulers for a list of n >= 1 nodes whose head is `head` < n; the
  /// table lives in the object, on the caller's stack (about 16 KiB).
  RulerWalk(std::size_t n, index_t head, std::uint64_t seed)
      : n_(n), head_(head) {
    const Rulers rulers = rulers_for(n, seed);
    const auto windows = static_cast<index_t>(rulers.windows(n));
    spread_ = std::uint64_t{1} << (64 - kWindowBits - rulers.shift);
    head_segment_ = rulers.cut(head, {table_, windows + std::size_t{1}});
    segments_ = windows + (head_segment_ == windows ? 1 : 0);
    // walk() may read any of the first kMaxWindows entries.
    for (std::size_t w = windows + 1; w < kMaxWindows; ++w)
      table_[w].ruler = knil;
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
    const auto n = static_cast<index_t>(n_);
    Lane lanes[kLanes];
    index_t queued = 0;  // segments offered to take() so far
    auto start = [&](Lane& lane) {
      while (queued < segments_) {
        const index_t s = queued++;
        if (table_[s].ruler < n && take(s)) {
          lane = {table_[s].ruler, s, 0};
          return true;
        }
      }
      return false;
    };
    std::size_t live = 0;
    while (live < kLanes && start(lanes[live])) ++live;
    std::size_t visits = 0;
    while (live != 0) {
      for (std::size_t k = 0; k < live; ++k) {
        Lane& lane = lanes[k];
        if (visits++ == n_) return false;
        const index_t v = lane.v;
        const index_t s = next[v];
        visit(v, s, lane.seg, lane.j++);
        // (s >> shift) mod kMaxWindows, s's window when s < n: the
        // product's bits past 64 drop off, so no s indexes past the table.
        const auto w = static_cast<index_t>((std::uint64_t{s} * spread_) >>
                                            (64 - kWindowBits));
        // One test, no short-circuit branches: a segment ends about once
        // per window of hops, and every mispredicted end throws away the
        // other lanes' loads in flight behind it.
        const bool inner = (s < n) & (s != table_[w].ruler) & (s != head_);
        if (inner) [[likely]] {
          pram::prefetch_ro(next + s);
          lane.v = s;
          continue;
        }
        // The segment ends: at nil, at a ruler, or out of range.
        if (s != knil && s >= n) return false;
        table_[lane.seg].length = lane.j;
        table_[lane.seg].next =
            s == knil ? knil : s == table_[w].ruler ? w : head_segment_;
        if (!start(lane)) lane = lanes[--live];
      }
    }
    return true;
  }

  /// list::order over this walk's table; every segment must be traced.
  bool order() { return list::order({table_, segments_}, head_segment_, n_); }

 private:
  std::size_t n_;
  index_t head_;
  std::uint64_t spread_ = 0;  ///< 2^(64 - kWindowBits - shift)
  index_t segments_ = 0;
  index_t head_segment_ = 0;
  Segment table_[kMaxWindows + 1];
};

/// One streaming pass over a successor array (0 < size < knil): the only
/// id that can head a chain, and the seed of its rulers.
struct Digest {
  index_t head;
  std::uint64_t seed;
};
Digest digest(const std::vector<index_t>& next);

/// The list check's fast verdict: whether `next` is one chain over all
/// its nodes, exactly stabilize::audit_structure(next).clean(), from one
/// digest and one ruler walk with no allocation. On true, head, tail and
/// seed describe the chain (on false they are untouched).
bool chain_is_clean(const std::vector<index_t>& next, index_t& head,
                    index_t& tail, std::uint64_t& seed);

}  // namespace llmp::list
