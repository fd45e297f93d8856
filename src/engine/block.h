// Block-partitioned storage: configuration and observability types.
//
// The engine partitions a list's node records into fixed-size blocks and
// keeps at most `cache_blocks` of them resident at a time; the rest live
// in a file-backed store (io_driver.h) and are swapped in on demand by a
// scheduler that ranks blocks by the tokens waiting in their mailboxes
// (scheduler.h). The point is to run the matching and ranking passes on
// lists far larger than the cache budget — the memory the engine holds
// per store is
//
//   cache_blocks × block_nodes × sizeof(record)
//
// regardless of list size, plus the chase's ruler table and the tokens in
// flight, each bounded by `mailbox_watermark` (blocked_match.h).
// EngineStats is the metrics surface every layer above
// (bench_blocked_ranking, llmp_cli --cache-blocks, serve requests with a
// memory budget) reports through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace llmp::engine {

/// Shape of the blocked store. `cache_blocks` is the bounded in-memory
/// cache; everything else is spilled. Both knobs must be nonzero.
struct BlockConfig {
  std::size_t block_nodes = 4096;  ///< node records per block
  std::size_t cache_blocks = 8;    ///< resident frames (the cache budget)
  /// Directory for the (unlinked) spill file; empty = $TMPDIR or /tmp.
  std::string spill_dir;
  /// Most windows the chase cuts the list into, and so most tokens in
  /// flight (bounds transient memory); the sweep also drains mailboxes
  /// once more tokens than this wait. 0 = 4 × block_nodes.
  std::size_t mailbox_watermark = 0;

  /// Cache budget in bytes for records of `record_bytes` each.
  std::size_t cache_budget_bytes(std::size_t record_bytes) const {
    return cache_blocks * block_nodes * record_bytes;
  }

  /// Config whose cache budget is at most `budget_bytes` for
  /// `record_bytes`-sized records (at least one frame of `block_nodes`).
  static BlockConfig from_budget(std::size_t budget_bytes,
                                 std::size_t record_bytes,
                                 std::size_t block_nodes = 4096) {
    BlockConfig cfg;
    cfg.block_nodes = block_nodes;
    const std::size_t frame_bytes = block_nodes * record_bytes;
    cfg.cache_blocks = frame_bytes == 0 ? 1 : budget_bytes / frame_bytes;
    if (cfg.cache_blocks == 0) cfg.cache_blocks = 1;
    return cfg;
  }
};

/// Where a block currently lives.
enum class Residency : std::uint8_t {
  kUnmaterialized,  ///< never written: loads synthesize the fill value
  kOnDisk,          ///< spilled to the backing file, not resident
  kResident,        ///< in a cache frame, clean (matches the file)
  kDirty,           ///< in a cache frame, modified since load
};

inline const char* to_string(Residency r) {
  switch (r) {
    case Residency::kUnmaterialized: return "unmaterialized";
    case Residency::kOnDisk: return "on-disk";
    case Residency::kResident: return "resident";
    case Residency::kDirty: return "dirty";
  }
  return "?";
}

/// Counters every blocked run reports through the metrics sink. All
/// monotonic within a run (longest_segment is a running maximum);
/// reset() between runs keeps no allocations.
struct EngineStats {
  std::uint64_t hits = 0;        ///< pins served from a resident frame
  std::uint64_t misses = 0;      ///< pins that had to load or materialize
  std::uint64_t loads = 0;       ///< block reads from the backing file
  std::uint64_t spills = 0;      ///< dirty block writes to the backing file
  std::uint64_t evictions = 0;   ///< frames recycled (clean or dirty)
  std::uint64_t swaps = 0;       ///< evict-then-load frame exchanges
  std::uint64_t load_bytes = 0;  ///< bytes read from the backing file
  std::uint64_t spill_bytes = 0;  ///< bytes written to the backing file
  std::uint64_t mailbox_posts = 0;    ///< tokens posted across blocks
  std::uint64_t mailbox_batches = 0;  ///< mailbox drains (batched pins)
  /// Most nodes one ruler's token walked: the chase's critical path.
  std::uint64_t longest_segment = 0;

  void reset() { *this = EngineStats{}; }

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 1.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

}  // namespace llmp::engine
