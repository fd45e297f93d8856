// Per-block mailboxes for the chase's tokens.
//
// The blocked passes never chase a pointer into a non-resident block
// directly — that would turn every cross-block link into a random block
// load. A token whose walk leaves the pinned block is posted into the
// successor's block mailbox instead, and the sweep moves on; the
// scheduler later pins the block with the most tokens waiting and walks
// the whole batch on against one load (blocked_match.h).
//
// Box vectors keep their capacity across clear(), so a warm engine posts
// and drains without allocating once the first run has sized them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/block.h"
#include "engine/scheduler.h"
#include "support/check.h"
#include "support/types.h"

namespace llmp::engine {

/// One ruler's token on its way through the list (16 bytes): the node it
/// visits next, in the target block, the ruler's entry in the chase's
/// table, and that node's distance from the ruler.
struct Token {
  index_t node = knil;
  index_t ruler = knil;
  std::uint64_t offset = 0;
};

class MailboxSet {
 public:
  /// Size the boxes for `blocks` blocks; keeps per-box capacity when
  /// re-initialized to the same or a smaller count.
  void init(std::size_t blocks) {
    if (boxes_.size() < blocks) boxes_.resize(blocks);
    blocks_ = blocks;
    for (std::size_t b = 0; b < blocks_; ++b) boxes_[b].clear();
  }

  std::size_t blocks() const { return blocks_; }

  void post(std::size_t block, const Token& token, CacheScheduler& sched,
            EngineStats& stats) {
    LLMP_DCHECK(block < blocks_);
    boxes_[block].push_back(token);
    sched.note_post(block);
    ++stats.mailbox_posts;
  }

  bool empty(std::size_t block) const { return boxes_[block].empty(); }

  /// The batch for `block`; the caller drains it in full, then calls
  /// clear(). Kept as a two-step so the drain loop can post tokens to
  /// *other* blocks while iterating this one.
  const std::vector<Token>& batch(std::size_t block) const {
    return boxes_[block];
  }

  void clear(std::size_t block, CacheScheduler& sched, EngineStats& stats) {
    if (!boxes_[block].empty()) ++stats.mailbox_batches;
    boxes_[block].clear();
    sched.note_drain(block);
  }

 private:
  std::vector<std::vector<Token>> boxes_;
  std::size_t blocks_ = 0;
};

}  // namespace llmp::engine
