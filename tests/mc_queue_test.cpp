// Model-checking the serve primitives: the real BoundedQueue /
// RetryLedger / WorkerSlot verify clean over every bounded interleaving,
// each seeded queue mutation is caught, and a caught violation's schedule
// replays deterministically. This is the CI face of tools/llmp_mc; the
// scenario bodies live in src/mc/scenarios.cpp (docs/MODELCHECK.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "mc/mc.h"
#include "mc/scenarios.h"

namespace llmp::mc {
namespace {

using serve::QueueMutation;

Scenario get(const std::string& name,
             QueueMutation m = QueueMutation::kNone) {
  return find_scenario(name, m);
}

Report check_scenario(const Scenario& sc) { return check(sc.body, sc.opts); }

// -- the real implementation is clean, exhaustively -------------------------

class CleanScenarioTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CleanScenarioTest, VerifiesCleanAndExhaustsTheBoundedSpace) {
  const Scenario sc = get(GetParam());
  const Report rep = check_scenario(sc);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_TRUE(rep.exhausted) << "space not exhausted after " << rep.executions
                             << " executions";
  EXPECT_GE(rep.executions, 1u);
  // backpressure-reject is single-interleaving by design: try_push never
  // blocks, and its one pop-vs-join race collapses under sleep sets.
  if (sc.name != "queue-backpressure-reject")
    EXPECT_GT(rep.executions, 1u) << "scenario explored only one interleaving";
}

INSTANTIATE_TEST_SUITE_P(Serve, CleanScenarioTest,
                         ::testing::Values("queue-mpmc",
                                           "queue-backpressure-block",
                                           "queue-backpressure-reject",
                                           "queue-close-drain",
                                           "queue-deadline-cancel",
                                           "retry-park-stop",
                                           "worker-handoff"));

// -- every seeded mutation is caught ----------------------------------------

struct MutantCase {
  QueueMutation mutation;
  const char* scenario;
};

/// Prints a case as mutation/scenario. Without it gtest prints the raw
/// bytes, whose `scenario` pointer moves with every load address, so the
/// listed test names would differ from one run of the binary to the next.
void PrintTo(const MutantCase& mc, std::ostream* os) {
  *os << to_string(mc.mutation) << '/' << mc.scenario;
}

class MutantTest : public ::testing::TestWithParam<MutantCase> {};

TEST_P(MutantTest, SeededBugIsCaughtWithAnExpectedKind) {
  const MutantCase mc = GetParam();
  const Scenario sc = get(mc.scenario, mc.mutation);
  const Report rep = check_scenario(sc);
  ASSERT_FALSE(rep.ok) << "mutant survived " << rep.executions
                       << " executions of " << mc.scenario;
  EXPECT_NE(std::find(sc.expected_violation.begin(),
                      sc.expected_violation.end(), rep.violation.kind),
            sc.expected_violation.end())
      << "caught as unexpected kind " << to_string(rep.violation.kind) << ": "
      << rep.violation.message;
  EXPECT_FALSE(rep.violation.trace.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Serve, MutantTest,
    ::testing::Values(
        MutantCase{QueueMutation::kLostNotify, "queue-backpressure-block"},
        MutantCase{QueueMutation::kLostNotify, "queue-deadline-cancel"},
        MutantCase{QueueMutation::kDoublePop, "queue-mpmc"},
        MutantCase{QueueMutation::kDroppedAcquire, "queue-close-drain"},
        MutantCase{QueueMutation::kDroppedAcquire, "queue-mpmc"}),
    [](const ::testing::TestParamInfo<MutantCase>& info) {
      std::string name = std::string(to_string(info.param.mutation)) + "_" +
                         info.param.scenario;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// -- a caught violation replays from its schedule ---------------------------

TEST(McQueueReplayTest, MutantScheduleReproducesTheViolation) {
  const Scenario sc = get("queue-mpmc", QueueMutation::kDoublePop);
  const Report rep = check_scenario(sc);
  ASSERT_FALSE(rep.ok);

  const Violation v = replay(sc.body, rep.violation.schedule);
  EXPECT_EQ(v.kind, rep.violation.kind)
      << "replay outcome differs: " << to_string(v.kind) << " vs "
      << to_string(rep.violation.kind);
  EXPECT_EQ(v.message, rep.violation.message);
}

TEST(McQueueReplayTest, MutantScheduleIsDeterministicAcrossRuns) {
  const Scenario sc = get("queue-close-drain", QueueMutation::kDroppedAcquire);
  const Report a = check_scenario(sc);
  const Report b = check_scenario(sc);
  ASSERT_FALSE(a.ok);
  ASSERT_FALSE(b.ok);
  EXPECT_EQ(a.violation.schedule, b.violation.schedule);
  EXPECT_EQ(a.violation.message, b.violation.message);
  EXPECT_EQ(a.executions, b.executions);
}

TEST(McQueueReplayTest, RealImplementationReplaysMutantScheduleClean) {
  // The schedule that kills the mutant must be a legal, clean execution of
  // the real queue (the bug, not the schedule, is the problem).
  const Scenario bad = get("queue-backpressure-block",
                           QueueMutation::kLostNotify);
  const Report rep = check_scenario(bad);
  ASSERT_FALSE(rep.ok);

  const Scenario good = get("queue-backpressure-block");
  const Violation v = replay(good.body, rep.violation.schedule);
  EXPECT_TRUE(v.kind == ViolationKind::kNone ||
              v.kind == ViolationKind::kDivergence)
      << to_string(v.kind) << ": " << v.message;
}

// -- bounds behave as documented --------------------------------------------

TEST(McQueueBoundsTest, WiderPreemptionBoundExploresMoreSchedules) {
  Scenario sc = get("queue-deadline-cancel");
  Options narrow = sc.opts;
  narrow.preemption_bound = 0;
  Options wide = sc.opts;
  wide.preemption_bound = 3;
  const Report rn = check(sc.body, narrow);
  const Report rw = check(sc.body, wide);
  EXPECT_TRUE(rn.ok) << rn.to_string();
  EXPECT_TRUE(rw.ok) << rw.to_string();
  EXPECT_LE(rn.executions, rw.executions);
}

TEST(McQueueBoundsTest, OrderSeedFindsTheSameMutantBug) {
  Scenario sc = get("queue-mpmc", QueueMutation::kDoublePop);
  sc.opts.order_seed = 0xc0ffee;
  const Report rep = check_scenario(sc);
  EXPECT_FALSE(rep.ok) << "shuffled order missed the seeded bug";
}

}  // namespace
}  // namespace llmp::mc
