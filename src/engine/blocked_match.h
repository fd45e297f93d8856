// BlockedMatcher — matching and ranking on a BlockedList, out of core.
//
// The flat walk chases `next` freely; here a chase that would leave the
// pinned block becomes a mailbox post. The list is cut by the in-core
// walk's ruler rule (list/ruler_walk.h), with the windows capped at
// `mailbox_watermark` so that the tokens in flight stay bounded:
//
//   1. chase — each ruler's token walks its segment and writes (ruler,
//      offset) into every NodeRec it visits, following in-block links
//      inline and posting cross-block ones to the successor's block
//      mailbox. It stops at the next ruler or at nil and records its
//      segment in the table. One sweep over the blocks starts the tokens
//      and serves each pinned block's own mail; then the scheduler pins
//      the block with the most tokens waiting until none are left. Every
//      node is visited once and posted at most once.
//   2. collect — list::order gives each ruler its distance from the head,
//      and one ordered stream adds each node's offset to get pos(v), whose
//      parity is the greedy matching and n − 1 − pos(v) the rank.
//
// Memory beyond the frames: at most W + 1 tokens in flight and a table
// of at most W + 1 entries (16 B each), W the watermark. init() is the
// only allocation: warm matching_into/ranking_into calls allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/match_result.h"
#include "engine/blocked_list.h"
#include "engine/mailbox.h"
#include "list/linked_list.h"
#include "list/ruler_walk.h"
#include "pram/stats.h"
#include "support/status.h"

namespace llmp::engine {

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
  const list::Rulers& rulers() const { return rulers_; }

  /// All engine counters for the runs since the last reset_stats().
  const EngineStats& stats() const { return list_.store().stats(); }
  void reset_stats() { list_.store().stats().reset(); }

 private:
  /// Chase every token to its end, then give every ruler its distance
  /// from the head: afterwards node v sits at
  /// table_[rec.ruler].offset + rec.offset.
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
  list::Rulers rulers_;
  std::vector<list::Segment> table_;  ///< one per window, then the head's
  index_t head_entry_ = 0;            ///< the head's window, or the last
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
