// Header hygiene: every public header must be self-contained (include
// what it uses) and double-inclusion-safe. This TU includes the whole
// public surface, twice, in an unhelpful order; it compiles or the build
// breaks.
#include "apps/euler_tour.h"
#include "apps/independent_set.h"
#include "apps/list_prefix.h"
#include "apps/list_ranking.h"
#include "apps/three_coloring.h"
#include "core/appendix_eval.h"
#include "core/cut.h"
#include "core/fanout.h"
#include "core/gather.h"
#include "core/lookup_table.h"
#include "core/match1.h"
#include "core/match2.h"
#include "core/match3.h"
#include "core/match4.h"
#include "core/match_result.h"
#include "core/maximal_matching.h"
#include "core/partition_fn.h"
#include "core/random_match.h"
#include "core/ring.h"
#include "core/run.h"
#include "core/sequential.h"
#include "core/verify.h"
#include "core/walkdown.h"
#include "engine/block.h"
#include "engine/block_store.h"
#include "engine/blocked_list.h"
#include "engine/blocked_match.h"
#include "engine/io_driver.h"
#include "engine/mailbox.h"
#include "engine/scheduler.h"
#include "list/generators.h"
#include "list/linked_list.h"
#include "llmp.h"
#include "net/admission.h"
#include "net/cli.h"
#include "net/client.h"
#include "net/server.h"
#include "net/stats.h"
#include "net/wire.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "pram/machine.h"
#include "pram/prefix.h"
#include "pram/replicate.h"
#include "pram/stats.h"
#include "pram/thread_pool.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "support/alloc_counter.h"
#include "support/bits.h"
#include "support/check.h"
#include "support/format.h"
#include "support/itlog.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/types.h"
// Second pass: include guards must hold.
#include "apps/euler_tour.h"
#include "engine/blocked_match.h"
#include "llmp.h"
#include "net/wire.h"
#include "serve/service.h"
#include "support/status.h"
#include "core/maximal_matching.h"
#include "pram/machine.h"
#include "support/bits.h"

#include <gtest/gtest.h>

namespace {

TEST(Headers, PublicSurfaceIsSelfContained) {
  // Compiling this TU is the test; touch a few symbols so nothing is
  // optimized into irrelevance.
  EXPECT_EQ(llmp::itlog::G(16), 4);
  EXPECT_EQ(llmp::core::kFixedPointBound, 6u);
  EXPECT_EQ(llmp::core::kNoColor, 0xFF);
  SUCCEED();
}

}  // namespace
