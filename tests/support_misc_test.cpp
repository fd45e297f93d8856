// Tests for the remaining support pieces: the table printer, the RNG, and
// executor cost accounting (Stats algebra).
#include <gtest/gtest.h>

#include <sstream>

#include "pram/executor.h"
#include "pram/stats.h"
#include "support/format.h"
#include "support/rng.h"

namespace llmp {
namespace {

TEST(Format, NumberFormatting) {
  EXPECT_EQ(fmt::num(std::uint64_t{0}), "0");
  EXPECT_EQ(fmt::num(std::uint64_t{999}), "999");
  EXPECT_EQ(fmt::num(std::uint64_t{1000}), "1,000");
  EXPECT_EQ(fmt::num(std::uint64_t{1234567890}), "1,234,567,890");
  EXPECT_EQ(fmt::num(std::int64_t{-1234567}), "-1,234,567");
  EXPECT_EQ(fmt::num(3.14159, 2), "3.14");
  EXPECT_EQ(fmt::num(-0.5, 1), "-0.5");
}

TEST(Format, TableAlignsColumns) {
  fmt::Table t({"a", "long header"});
  t.add_row({"12345", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Three lines: header, rule, row — all equal width.
  const auto first_nl = out.find('\n');
  const auto second_nl = out.find('\n', first_nl + 1);
  const auto third_nl = out.find('\n', second_nl + 1);
  EXPECT_EQ(first_nl, second_nl - first_nl - 1);
  EXPECT_EQ(first_nl, third_nl - second_nl - 1);
  EXPECT_NE(out.find("long header"), std::string::npos);
}

TEST(Format, TableRejectsWrongArity) {
  fmt::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), check_error);
}

TEST(Format, JsonCaptureMirrorsPrintedTables) {
  fmt::reset_json_capture();
  fmt::enable_json_capture(true);
  fmt::Table t({"n", "steps", "wall ms"});
  t.add_row({"2^16", "4,128 (1.01x)", "12.50"});
  t.add_row({"2^17", "8,256", "25.00"});
  std::ostringstream os;
  t.print(os);
  fmt::enable_json_capture(false);

  const std::string json = fmt::render_captured_json("bench_x");
  fmt::reset_json_capture();
  // google-benchmark schema: a context block and one entry per row.
  EXPECT_NE(json.find("\"context\""), std::string::npos);
  EXPECT_NE(json.find("\"executable\": \"bench_x\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"n/2^16\""), std::string::npos);
  EXPECT_NE(json.find("\"run_type\": \"iteration\""), std::string::npos);
  EXPECT_NE(json.find("\"time_unit\": \"ms\""), std::string::npos);
  // Numeric columns ride along as counters: thousands separators and
  // trailing annotations are stripped to the leading value.
  EXPECT_NE(json.find("\"steps\": 4128"), std::string::npos);
  EXPECT_NE(json.find("\"steps\": 8256"), std::string::npos);
  // The ms-ish column feeds real_time/cpu_time.
  EXPECT_NE(json.find("\"real_time\": 12.5"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_time\": 25"), std::string::npos);
}

TEST(Format, JsonCaptureIsInertWhenDisabled) {
  fmt::reset_json_capture();
  ASSERT_FALSE(fmt::json_capture_enabled());
  fmt::Table t({"a"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  const std::string json = fmt::render_captured_json("x");
  EXPECT_EQ(json.find("\"name\""), std::string::npos)
      << "table captured while capture was disabled:\n"
      << json;
}

TEST(Rng, DeterministicPerSeed) {
  rng::Xoshiro256 a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
  }
  bool differs = false;
  rng::Xoshiro256 a2(7);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  rng::Xoshiro256 gen(3);
  constexpr std::uint64_t kBound = 10;
  std::size_t buckets[kBound] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = gen.below(kBound);
    ASSERT_LT(v, kBound);
    ++buckets[v];
  }
  for (auto b : buckets) {
    EXPECT_GT(b, kDraws / kBound * 8 / 10);
    EXPECT_LT(b, kDraws / kBound * 12 / 10);
  }
  EXPECT_EQ(gen.below(0), 0u);
  EXPECT_EQ(gen.below(1), 0u);
}

TEST(Rng, SplitMixStreamsDiffer) {
  rng::SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Stats, ArithmeticAndPhaseLookup) {
  pram::Stats a{10, 20, 30, 40, 50};
  pram::Stats b{1, 2, 3, 4, 5};
  const pram::Stats d = a - b;
  EXPECT_EQ(d.depth, 9u);
  EXPECT_EQ(d.time_p, 18u);
  EXPECT_EQ(d.work, 27u);
  pram::Stats acc = b;
  acc += b;
  EXPECT_EQ(acc.depth, 2u);
  pram::PhaseBreakdown phases{{"x", a}, {"y", b}};
  EXPECT_EQ(pram::phase_cost(phases, "y").work, 3u);
  EXPECT_EQ(pram::phase_cost(phases, "missing").work, 0u);
}

TEST(Executor, UnitCostMultipliesTime) {
  pram::SeqExec e(10);
  std::vector<int> a(25, 0);
  e.step(25, 7, [&](std::size_t v, auto&& m) { m.wr(a, v, 1); });
  EXPECT_EQ(e.stats().depth, 1u);
  EXPECT_EQ(e.stats().time_p, 3u * 7u);  // ceil(25/10)·7
  EXPECT_EQ(e.stats().work, 25u * 7u);
}

TEST(Executor, ZeroProcsStepIsFree) {
  pram::SeqExec e(4);
  e.step(0, [&](std::size_t, auto&&) { FAIL() << "body must not run"; });
  EXPECT_EQ(e.stats().time_p, 0u);
  EXPECT_EQ(e.stats().depth, 1u);
}

TEST(Executor, ParallelExecMatchesSeqExecResults) {
  pram::ThreadPool pool(2);
  pram::SeqExec s(8);
  pram::ParallelExec p(8, pool, /*threshold=*/1);
  std::vector<std::uint64_t> a(5000, 0), b(5000, 0);
  s.step(5000, [&](std::size_t v, auto&& m) {
    m.wr(a, v, static_cast<std::uint64_t>(v * v));
  });
  p.step(5000, [&](std::size_t v, auto&& m) {
    m.wr(b, v, static_cast<std::uint64_t>(v * v));
  });
  EXPECT_EQ(a, b);
  EXPECT_EQ(s.stats().time_p, p.stats().time_p);
}

}  // namespace
}  // namespace llmp
