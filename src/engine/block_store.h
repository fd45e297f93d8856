// BlockStore<T> — fixed-size node blocks behind a bounded frame cache.
//
// A store holds `blocks()` logical blocks of `block_nodes` records each,
// but only `cache_blocks` frames of real memory; the rest round-trip
// through an IoDriver backing file. Frames are allocated once in init()
// and reused forever, so warm runs allocate nothing.
//
// Access model: pin(block) makes a block resident and returns its frame;
// the frame stays valid until the next pin()/flush() call, which may
// recycle it (the engine's passes are single-threaded streams working on
// one block at a time, so nothing else is ever needed). A
// caller that wrote through the frame marks the block dirty; only dirty
// blocks are spilled on eviction, so a read-only pass over clean blocks
// costs loads but no spill bytes.
//
// Eviction is delegated to the CacheScheduler: the victim is the resident
// block with the least pending mailbox work (LRU tie-break). The
// `engine.cache.evict` failpoint fires on every eviction, before the
// spill, so the chaos suite can fault the swap path independently of raw
// file IO.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/block.h"
#include "engine/io_driver.h"
#include "engine/scheduler.h"
#include "support/check.h"
#include "support/failpoint.h"
#include "support/status.h"

namespace llmp::engine {

template <class T>
class BlockStore {
 public:
  /// Size the store for `n` records under `cfg`, with `fill` as the
  /// content of never-written blocks. Allocates all frames and maps here
  /// — the only allocation point. Re-init with the same geometry reuses
  /// every buffer.
  Status init(std::size_t n, const BlockConfig& cfg, CacheScheduler* sched,
              const T& fill = T{}) {
    if (cfg.block_nodes == 0 || cfg.cache_blocks == 0) {
      return Status::invalid_argument(
          "BlockStore: block_nodes and cache_blocks must be > 0");
    }
    n_ = n;
    block_nodes_ = cfg.block_nodes;
    blocks_ = n == 0 ? 0 : (n + block_nodes_ - 1) / block_nodes_;
    cache_blocks_ = cfg.cache_blocks < blocks_ ? cfg.cache_blocks : blocks_;
    if (cache_blocks_ == 0) cache_blocks_ = 1;
    sched_ = sched;
    fill_ = fill;

    frames_.resize(cache_blocks_ * block_nodes_);
    frame_block_.assign(cache_blocks_, kNoBlock);
    block_frame_.assign(blocks_, kNoFrame);
    residency_.assign(blocks_, Residency::kUnmaterialized);
    on_file_.assign(blocks_, 0);
    resident_scratch_.clear();
    resident_scratch_.reserve(cache_blocks_);

    // The backing file is only needed once a block can be evicted.
    if (blocks_ > cache_blocks_ || driver_.is_open()) {
      Status s = driver_.open(block_nodes_ * sizeof(T), cfg.spill_dir);
      if (!s.ok()) return s;
    }
    return Status();
  }

  std::size_t size() const { return n_; }
  std::size_t blocks() const { return blocks_; }
  std::size_t block_nodes() const { return block_nodes_; }
  std::size_t cache_blocks() const { return cache_blocks_; }
  std::size_t block_of(std::size_t node) const { return node / block_nodes_; }
  std::size_t slot_of(std::size_t node) const { return node % block_nodes_; }
  Residency residency(std::size_t block) const { return residency_[block]; }
  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }

  /// Make `block` resident and return its frame via *out. The frame is
  /// valid until the next pin()/flush(). Write access: pin then
  /// mark_dirty().
  Status pin(std::size_t block, T** out) {
    LLMP_DCHECK(block < blocks_);
    std::size_t frame = block_frame_[block];
    if (frame != kNoFrame) {
      ++stats_.hits;
      if (sched_ != nullptr) sched_->touch(block);
      *out = frames_.data() + frame * block_nodes_;
      return Status();
    }
    ++stats_.misses;
    bool swapped = false;
    Status s = acquire_frame(&frame, &swapped);
    if (!s.ok()) return s;
    T* data = frames_.data() + frame * block_nodes_;
    if (residency_[block] == Residency::kOnDisk) {
      Status rs = driver_.read_block(block, data);
      if (!rs.ok()) {
        // The frame stays free; the block stays on disk.
        return rs;
      }
      ++stats_.loads;
      stats_.load_bytes += block_nodes_ * sizeof(T);
      if (swapped) ++stats_.swaps;
    } else {
      // Never written: materialize the fill value in place.
      for (std::size_t i = 0; i < block_nodes_; ++i) data[i] = fill_;
    }
    frame_block_[frame] = block;
    block_frame_[block] = frame;
    residency_[block] = Residency::kResident;
    if (sched_ != nullptr) sched_->touch(block);
    *out = data;
    return Status();
  }

  /// Record that the active pinned block's frame was written.
  void mark_dirty(std::size_t block) {
    LLMP_DCHECK(block_frame_[block] != kNoFrame);
    residency_[block] = Residency::kDirty;
  }

  /// Spill every dirty resident block (frames stay resident and clean).
  Status flush() {
    for (std::size_t frame = 0; frame < cache_blocks_; ++frame) {
      const std::size_t block = frame_block_[frame];
      if (block == kNoBlock || residency_[block] != Residency::kDirty)
        continue;
      Status s =
          driver_.write_block(block, frames_.data() + frame * block_nodes_);
      if (!s.ok()) return s;
      ++stats_.spills;
      stats_.spill_bytes += block_nodes_ * sizeof(T);
      on_file_[block] = 1;
      residency_[block] = Residency::kResident;
    }
    return Status();
  }

 private:
  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);

  /// A free frame, or the scheduler's victim evicted (spilling if dirty).
  Status acquire_frame(std::size_t* frame, bool* swapped) {
    for (std::size_t f = 0; f < cache_blocks_; ++f) {
      if (frame_block_[f] == kNoBlock) {
        *frame = f;
        return Status();
      }
    }
    // All frames occupied: evict the scheduler's pick. Any frame is fair
    // game — pin() invalidates previously returned frames by contract,
    // which is what lets a one-frame cache still make progress.
    resident_scratch_.clear();
    for (std::size_t f = 0; f < cache_blocks_; ++f)
      resident_scratch_.push_back(frame_block_[f]);
    const std::size_t victim = sched_ != nullptr
                                   ? sched_->pick_victim(resident_scratch_)
                                   : resident_scratch_.front();
    LLMP_FAILPOINT("engine.cache.evict");
    const std::size_t vframe = block_frame_[victim];
    if (residency_[victim] == Residency::kDirty) {
      Status s = driver_.write_block(
          victim, frames_.data() + vframe * block_nodes_);
      if (!s.ok()) return s;
      ++stats_.spills;
      stats_.spill_bytes += block_nodes_ * sizeof(T);
      on_file_[victim] = 1;
    }
    // A clean block with no file copy was materialized and never written:
    // its content is still the fill value, so it reverts to
    // kUnmaterialized instead of pretending the file holds it.
    residency_[victim] = on_file_[victim] != 0 ? Residency::kOnDisk
                                               : Residency::kUnmaterialized;
    block_frame_[victim] = kNoFrame;
    frame_block_[vframe] = kNoBlock;
    ++stats_.evictions;
    *frame = vframe;
    *swapped = true;
    return Status();
  }

  std::size_t n_ = 0;
  std::size_t block_nodes_ = 1;
  std::size_t blocks_ = 0;
  std::size_t cache_blocks_ = 0;
  T fill_{};

  std::vector<T> frames_;
  std::vector<std::size_t> frame_block_;  ///< frame -> block (kNoBlock free)
  std::vector<std::size_t> block_frame_;  ///< block -> frame (kNoFrame out)
  std::vector<Residency> residency_;
  std::vector<std::uint8_t> on_file_;  ///< block has a copy in the file
  std::vector<std::size_t> resident_scratch_;

  IoDriver driver_;
  CacheScheduler* sched_ = nullptr;
  EngineStats stats_;
};

}  // namespace llmp::engine
