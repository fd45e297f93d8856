// BlockedMatcher — matching and ranking on a BlockedList, out of core.
//
// The flat walk chases `next` freely; here a chase that would leave the
// pinned block becomes a mailbox post, and the list is cut so that many
// short chases advance together against each block load. This is the
// ruler chasing of distributed list ranking (Sanders et al., "Engineering
// Scalable Distributed List Ranking", PAPERS.md), which list/ruler_walk.h
// runs in core:
//
//   1. rulers — the head, plus one id per aligned window of 2^shift ids,
//      with shift the smallest that leaves at most `mailbox_watermark`
//      windows. A window's ruler sits at an offset hashed from the window
//      index and the list's seed (BlockedList::seed), so no order fixed in
//      advance lines the rulers up (see Rulers).
//   2. chase — each ruler's token walks its segment and writes (ruler,
//      offset) into every NodeRec it visits. It follows in-block links
//      inline; at a cross-block link it is posted to the successor's
//      block mailbox. A token stops at the next ruler or at nil and
//      records that ruler and the segment's length in the ruler table. One
//      sweep over the blocks starts the tokens and serves each pinned
//      block's own mail; then the scheduler pins the block with the most
//      tokens waiting until none are left. Every node is visited once and
//      posted at most once.
//   3. collect — one in-memory walk over the table gives each ruler its
//      distance from the head, and one ordered stream turns
//      pos[ruler] + offset into the result: rank(v) = n − 1 − pos(v) (the
//      apps:: convention), and the greedy matching is its parity —
//      in_matching[v] = 1 iff pos(v) is even and v has a pointer, which is
//      exactly what core::sequential_matching computes, so the blocked
//      MatchResult is identical to the flat path's.
//
// Memory beyond the frames: at most W + 1 tokens in flight (16 B each)
// and a table of at most W + 1 entries (12 B each), W the watermark.
//
// A matcher is init() once (the only allocations) and rerun warm:
// repeated matching_into/ranking_into calls allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/match_result.h"
#include "engine/blocked_list.h"
#include "engine/mailbox.h"
#include "list/linked_list.h"
#include "pram/stats.h"
#include "support/rng.h"
#include "support/status.h"

namespace llmp::engine {

/// Where the chase cuts a list: besides the head, the one id in each
/// aligned window of 2^shift ids at an offset hashed from the window
/// index and `seed`. The chase takes the list's own seed, so the rulers
/// move whenever the list does: an order laid out against a fixed rule
/// (id multiples, or this rule under a fixed seed) meets them at random.
/// A ruler past the list's end (in a partial last window) cuts nothing.
struct Rulers {
  unsigned shift = 0;      ///< log2 of the window width
  std::uint64_t seed = 0;  ///< BlockedList::seed() of the list

  /// The smallest shift that leaves at most `max_windows` (≥ 1) windows
  /// over n ≥ 1 ids.
  static unsigned shift_for(std::size_t n, std::uint64_t max_windows) {
    unsigned s = 0;
    while (((n - 1) >> s) >= max_windows) ++s;
    return s;
  }

  std::size_t windows(std::size_t n) const { return ((n - 1) >> shift) + 1; }

  /// The ruler of window w. The offset is masked, never shifted, so
  /// shift 0 (every id a ruler) is well defined.
  std::uint64_t ruler(std::uint64_t w) const {
    const std::uint64_t mask = (std::uint64_t{1} << shift) - 1;
    return (w << shift) | (rng::SplitMix64(seed ^ w).next() & mask);
  }
};

class BlockedMatcher {
 public:
  /// Build the blocked image of `src` and size all working state — the
  /// one allocation point. Re-init with a different list re-sizes.
  Status init(const list::LinkedList& src, const BlockConfig& cfg);

  /// The greedy maximal matching, identical to the flat
  /// core::sequential_matching result (in_matching, edges, cost, phases).
  Status matching_into(core::MatchResult& r);

  /// rank[v] = link distance from v to the tail, identical to
  /// apps::sequential_ranking.
  Status ranking_into(std::vector<std::uint64_t>& rank);

  BlockedList& blocked_list() { return list_; }
  const BlockedList& blocked_list() const { return list_; }
  /// The rulers the chase cuts the current list at.
  const Rulers& rulers() const { return rulers_; }

  /// All engine counters for the runs since the last reset_stats().
  const EngineStats& stats() const { return list_.store().stats(); }
  void reset_stats() { list_.store().stats().reset(); }

 private:
  /// One ruler's entry: the segment it heads, then its place in the list.
  struct Segment {
    index_t next;    ///< entry of the ruler the segment runs into; knil: nil
    index_t length;  ///< nodes from the ruler up to that ruler or nil
    index_t pos;     ///< the ruler's distance from the head (after resolve)
  };

  /// Chase every token to its end, then give every ruler its distance
  /// from the head: afterwards node v sits at
  /// table_[rec.ruler].pos + rec.offset.
  Status resolve_all();
  /// Walk `t` through the pinned block b (frame `recs`) until it leaves
  /// the block (posted on), meets a ruler or reaches nil.
  void advance(Token t, std::size_t b, NodeRec* recs);
  /// Walk on every token waiting in block b's mailbox.
  void serve(std::size_t b, NodeRec* recs);
  /// Drain mailboxes, most-pending block first, until the total backlog
  /// is at most `target`.
  Status drain_until(std::uint64_t target);

  BlockedList list_;
  MailboxSet tokens_;
  Rulers rulers_;
  std::vector<Segment> table_;  ///< one entry per window, then the head's
  index_t head_entry_ = 0;      ///< the head's window, or the last entry
  std::uint64_t watermark_ = 0;
};

/// EngineStats mapped onto the PRAM metrics vocabulary so blocked runs
/// feed the same sink (Context::note_phase, bench tables): depth is the
/// longest segment (the chase's critical path), time_p block IO
/// operations, work mailbox traffic, reads/writes the bytes moved through
/// the backing store.
inline pram::Stats to_pram_stats(const EngineStats& e) {
  pram::Stats s;
  s.depth = e.longest_segment;
  s.time_p = e.loads + e.spills;
  s.work = e.mailbox_posts;
  s.reads = e.load_bytes;
  s.writes = e.spill_bytes;
  return s;
}

}  // namespace llmp::engine
