#include "engine/blocked_list.h"

#include "support/check.h"

namespace llmp::engine {

Status BlockedList::init(const list::LinkedList& src, const BlockConfig& cfg) {
  cfg_ = cfg;
  n_ = src.size();
  head_ = src.head();
  tail_ = src.tail();
  sched_.init(n_ == 0 ? 0 : (n_ + cfg.block_nodes - 1) / cfg.block_nodes);
  if (Status s = store_.init(n_, cfg, &sched_); !s.ok()) return s;
  const std::size_t bn = store_.block_nodes();
  for (std::size_t b = 0; b < store_.blocks(); ++b) {
    NodeRec* recs = nullptr;
    if (Status s = store_.pin(b, &recs); !s.ok()) return s;
    const std::size_t base = b * bn;
    const std::size_t count = (base + bn <= n_) ? bn : n_ - base;
    for (std::size_t i = 0; i < count; ++i)
      recs[i] = {src.next(static_cast<index_t>(base + i)), knil, 0};
    store_.mark_dirty(b);
  }
  return Status();
}

Status BlockedList::to_flat(std::vector<index_t>& out) {
  out.assign(n_, knil);
  const std::size_t bn = store_.block_nodes();
  for (std::size_t b = 0; b < store_.blocks(); ++b) {
    NodeRec* recs = nullptr;
    if (Status s = store_.pin(b, &recs); !s.ok()) return s;
    const std::size_t base = b * bn;
    const std::size_t count = (base + bn <= n_) ? bn : n_ - base;
    LLMP_DCHECK(base + count <= out.size());
    for (std::size_t i = 0; i < count; ++i) out[base + i] = recs[i].next;
  }
  return Status();
}

}  // namespace llmp::engine
