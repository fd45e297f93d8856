#include "engine/blocked_list.h"

#include "support/check.h"
#include "support/rng.h"

namespace llmp::engine {

Status BlockedList::init(const list::LinkedList& src, const BlockConfig& cfg) {
  cfg_ = cfg;
  n_ = src.size();
  head_ = src.head();
  tail_ = src.tail();
  sched_.init(n_ == 0 ? 0 : (n_ + cfg.block_nodes - 1) / cfg.block_nodes);
  if (Status s = store_.init(n_, cfg, &sched_); !s.ok()) return s;
  const std::size_t bn = store_.block_nodes();
  std::uint64_t fold = 0;
  for (std::size_t b = 0; b < store_.blocks(); ++b) {
    NodeRec* recs = nullptr;
    if (Status s = store_.pin(b, &recs); !s.ok()) return s;
    const std::size_t base = b * bn;
    const std::size_t count = (base + bn <= n_) ? bn : n_ - base;
    for (std::size_t i = 0; i < count; ++i) {
      const index_t next = src.next(static_cast<index_t>(base + i));
      recs[i] = {next, knil, 0};
      // FNV-1a style: the seed depends on every link and where it sits.
      fold = (fold ^ next) * 0x9e3779b97f4a7c15ULL;
    }
    store_.mark_dirty(b);
  }
  seed_ = rng::SplitMix64(fold).next();
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
