// BlockedList — a linked list whose node records live in cached blocks.
//
// The blocked counterpart of list::LinkedList:
// each node owns one NodeRec in a BlockStore, so at most
// cache_blocks × block_nodes records are in memory at any time however
// long the list is. init() streams the successor array through the cache
// once (the ingest pass — a production ingest would stream from a file
// the same way); to_flat() streams it back out, which is how tests prove
// the round trip is lossless.
//
// Beside the static successor, every NodeRec carries what the chase
// writes there (blocked_match.h): the ruler whose token visited the node
// and the node's offset from that ruler. Keeping them in the same record
// means one pin serves both the read of next and the write of the
// chase's state.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/block.h"
#include "engine/block_store.h"
#include "engine/scheduler.h"
#include "list/linked_list.h"
#include "support/status.h"
#include "support/types.h"

namespace llmp::engine {

/// One node's record in the blocked store (16 bytes).
struct NodeRec {
  index_t next = knil;       ///< static successor (knil = tail)
  index_t ruler = knil;      ///< the chase's table entry of this node's ruler
  std::uint64_t offset = 0;  ///< link distance from that ruler to this node
};

class BlockedList {
 public:
  /// Build the blocked image of `src` under `cfg`: allocates the cache
  /// frames and maps, then streams every block through the cache. The
  /// one allocation point.
  Status init(const list::LinkedList& src, const BlockConfig& cfg);

  std::size_t size() const { return n_; }
  index_t head() const { return head_; }
  index_t tail() const { return tail_; }

  const BlockConfig& config() const { return cfg_; }
  std::size_t blocks() const { return store_.blocks(); }

  BlockStore<NodeRec>& store() { return store_; }
  const BlockStore<NodeRec>& store() const { return store_; }
  CacheScheduler& scheduler() { return sched_; }

  /// Stream the successor array back out of the blocked store.
  Status to_flat(std::vector<index_t>& out);

 private:
  std::size_t n_ = 0;
  index_t head_ = knil;
  index_t tail_ = knil;
  BlockConfig cfg_;
  CacheScheduler sched_;
  BlockStore<NodeRec> store_;
};

}  // namespace llmp::engine
