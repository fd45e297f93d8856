#include "engine/blocked_match.h"

#include <algorithm>

#include "support/check.h"

namespace llmp::engine {

Status BlockedMatcher::init(const list::LinkedList& src,
                            const BlockConfig& cfg) {
  if (Status s = list_.init(src, cfg); !s.ok()) return s;
  tokens_.init(list_.blocks());
  watermark_ = cfg.mailbox_watermark != 0
                   ? cfg.mailbox_watermark
                   : static_cast<std::uint64_t>(4 * cfg.block_nodes);
  const std::size_t n = list_.size();
  rulers_ = {list::Rulers::shift_for(n, watermark_), src.seed()};
  table_.assign(rulers_.windows(n) + 1, {});
  head_entry_ = rulers_.cut(list_.head(), table_);
  return Status();
}

void BlockedMatcher::advance(Token t, std::size_t b, NodeRec* recs) {
  auto& store = list_.store();
  for (;;) {
    NodeRec& rec = recs[store.slot_of(t.node)];
    rec.ruler = t.ruler;
    rec.offset = t.offset++;
    const index_t nx = rec.next;
    // Nothing links to the head, so the only rulers a token can meet are
    // window rulers, and a window ruler's entry is its window.
    const index_t w = nx >> rulers_.shift;
    if (nx == knil || table_[w].ruler == nx) {
      list::Segment& seg = table_[t.ruler];
      seg.next = nx == knil ? knil : w;
      seg.length = static_cast<index_t>(t.offset);
      auto& longest = store.stats().longest_segment;
      longest = std::max(longest, t.offset);
      return;
    }
    t.node = nx;
    const std::size_t to = store.block_of(nx);
    if (to != b) {
      tokens_.post(to, t, list_.scheduler(), store.stats());
      return;
    }
  }
}

void BlockedMatcher::serve(std::size_t b, NodeRec* recs) {
  // advance() posts only to other blocks, so b's batch stays put.
  for (const Token& t : tokens_.batch(b)) advance(t, b, recs);
  tokens_.clear(b, list_.scheduler(), list_.store().stats());
}

Status BlockedMatcher::drain_until(std::uint64_t target) {
  auto& store = list_.store();
  auto& sched = list_.scheduler();
  while (sched.total_pending() > target) {
    const std::size_t b = sched.next_block();
    if (b == CacheScheduler::kNone) break;
    NodeRec* recs = nullptr;
    if (Status s = store.pin(b, &recs); !s.ok()) return s;
    serve(b, recs);
    store.mark_dirty(b);
  }
  return Status();
}

Status BlockedMatcher::resolve_all() {
  // A faulted previous run may have left tokens in flight; start clean
  // (init/assign at unchanged sizes — no allocations).
  auto& store = list_.store();
  auto& sched = list_.scheduler();
  tokens_.init(list_.blocks());
  sched.init(list_.blocks());
  const std::size_t bn = store.block_nodes();
  const std::size_t n = list_.size();
  const std::size_t windows = table_.size() - 1;
  const index_t head = list_.head();
  std::size_t w = 0;  // rulers ascend with their windows
  for (std::size_t b = 0; b < store.blocks(); ++b) {
    NodeRec* recs = nullptr;
    if (Status s = store.pin(b, &recs); !s.ok()) return s;
    serve(b, recs);
    for (; w < windows; ++w) {
      const index_t r = table_[w].ruler;
      if (r >= (b + 1) * bn) break;
      if (r < n) advance({r, static_cast<index_t>(w), 0}, b, recs);
    }
    if (head_entry_ == windows && store.block_of(head) == b)
      advance({head, head_entry_, 0}, b, recs);
    store.mark_dirty(b);
    // Bound the tokens in flight. They never outnumber the rulers, so
    // this fires only when nearly every token waits at once.
    if (sched.total_pending() > watermark_) {
      if (Status s = drain_until(watermark_ / 2); !s.ok()) return s;
    }
  }
  if (Status s = drain_until(0); !s.ok()) return s;
  LLMP_CHECK(list::order(table_, head_entry_, n));  // a chain by construction
  return Status();
}

Status BlockedMatcher::matching_into(core::MatchResult& r) {
  if (Status s = resolve_all(); !s.ok()) return s;
  auto& store = list_.store();
  const std::size_t bn = store.block_nodes();
  const std::size_t n = list_.size();
  r.reset();
  r.in_matching.assign(n, 0);
  for (std::size_t b = 0; b < store.blocks(); ++b) {
    NodeRec* recs = nullptr;
    if (Status s = store.pin(b, &recs); !s.ok()) return s;
    const std::size_t base = b * bn;
    const std::size_t count = (base + bn <= n) ? bn : n - base;
    for (std::size_t i = 0; i < count; ++i) {
      if (recs[i].next == knil) continue;  // the tail has no pointer
      // Greedy-from-head takes every even-distance pointer.
      const std::uint64_t from_head =
          table_[recs[i].ruler].offset + recs[i].offset;
      if ((from_head & 1) == 0) {
        r.in_matching[base + i] = 1;
        ++r.edges;
      }
    }
  }
  // Same cost surface as the flat walk (n visits): the engine-level IO
  // metrics live in stats(), keeping the MatchResult byte-identical.
  const std::uint64_t ops = n;
  r.cost = {ops, ops, ops, 0, 0};
  r.phases.push_back({"walk", r.cost});
  return Status();
}

Status BlockedMatcher::ranking_into(std::vector<std::uint64_t>& rank) {
  if (Status s = resolve_all(); !s.ok()) return s;
  auto& store = list_.store();
  const std::size_t bn = store.block_nodes();
  const std::size_t n = list_.size();
  const std::uint64_t last = static_cast<std::uint64_t>(n) - 1;
  rank.assign(n, 0);
  for (std::size_t b = 0; b < store.blocks(); ++b) {
    NodeRec* recs = nullptr;
    if (Status s = store.pin(b, &recs); !s.ok()) return s;
    const std::size_t base = b * bn;
    const std::size_t count = (base + bn <= n) ? bn : n - base;
    LLMP_DCHECK(base + count <= rank.size());
    for (std::size_t i = 0; i < count; ++i)
      rank[base + i] = last - (table_[recs[i].ruler].offset + recs[i].offset);
  }
  return Status();
}

}  // namespace llmp::engine
