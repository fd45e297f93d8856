// support/metrics.h — the one latency histogram's bucket rule and
// percentiles (single samples at and around powers of two, past the top
// bucket, a mixed set, and record racing percentile/reset — run under
// TSan in CI), the tallies, and the stats tables' coverage of their
// structs.
#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/stats.h"
#include "serve/stats.h"
#include "support/metrics.h"

namespace llmp::support {
namespace {

TEST(Metrics, HistogramSingleSamplePercentiles) {
  // Bucket 0 holds samples <= 1 µs; bucket i holds (2^(i-1), 2^i] µs and
  // reports 2^i, so an exact power of two reports itself.
  constexpr std::uint64_t kTop = std::uint64_t{1}
                                 << (LatencyHistogram::kBuckets - 1);
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {0, 1},       {1, 1},       {2, 2},       {3, 4},
      {4, 4},       {1023, 1024}, {1024, 1024}, {1025, 2048},
      {kTop + 1, kTop},  // past the top bucket: clamped into it
  };
  for (const auto& [us, reported] : cases) {
    LatencyHistogram h;
    h.record(us);
    EXPECT_EQ(h.percentile(0.50), reported) << us;
    EXPECT_EQ(h.percentile(0.99), reported) << us;
  }
}

TEST(Metrics, HistogramMixedSetPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.50), 0u);  // no samples
  for (int i = 0; i < 90; ++i) h.record(3);  // → 4
  for (int i = 0; i < 9; ++i) h.record(100);  // → 128
  h.record(5000);                             // → 8192
  // rank = floor(q · (n − 1)) + 1 over the 100 samples.
  EXPECT_EQ(h.percentile(0.0), 4u);
  EXPECT_EQ(h.percentile(0.50), 4u);
  EXPECT_EQ(h.percentile(0.90), 4u);
  EXPECT_EQ(h.percentile(0.91), 128u);
  EXPECT_EQ(h.percentile(0.99), 128u);
  EXPECT_EQ(h.percentile(1.0), 8192u);
  h.reset();
  EXPECT_EQ(h.percentile(0.99), 0u);
}

TEST(Metrics, HistogramRecordRacesPercentileAndReset) {
  LatencyHistogram h;
  constexpr int kWriters = 3;
  constexpr int kRecords = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i)
        h.record(static_cast<std::uint64_t>((i * (t + 1)) % 5000));
    });
  // Every percentile read mid-race is 0 (empty after a reset) or one of
  // the bucket bounds the recorded values can land in.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(h.percentile(0.50));
    seen.insert(h.percentile(0.99));
    if (i % 100 == 0) h.reset();
  }
  for (auto& w : writers) w.join();
  for (const std::uint64_t v : seen)
    EXPECT_TRUE(v == 0 || (std::has_single_bit(v) && v <= 8192)) << v;
  h.reset();
  h.record(7);
  EXPECT_EQ(h.percentile(0.50), 8u);
}

struct Pair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
inline constexpr auto kPairFields = std::to_array<StatField<Pair>>({
    {"a", &Pair::a},
    {"b", &Pair::b},
});

TEST(Metrics, TalliesAddLoadAndReset) {
  Tallies<kPairFields> t;
  t.add<&Pair::a>();
  t.add<&Pair::b>(5);
  t.add<&Pair::a>(2);
  Pair p;
  t.load_into(p);
  EXPECT_EQ(p.a, 3u);
  EXPECT_EQ(p.b, 5u);
  t.reset();
  t.load_into(p);
  EXPECT_EQ(p.a, 0u);
  EXPECT_EQ(p.b, 0u);
}

/// A table names each field once.
template <class Table>
void expect_distinct(const Table& table) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_TRUE(names.insert(table[i].name).second) << table[i].name;
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_FALSE(table[i].member == table[j].member) << table[i].name;
  }
}

TEST(Metrics, StatsTablesListEveryFieldOnce) {
  expect_distinct(serve::kServiceStatsFields);
  expect_distinct(net::kServerStatsFields);
  expect_distinct(net::kTenantStatsFields);
  // Each table covers its struct: a u64 field added without its entry
  // changes the struct's size and fails here.
  EXPECT_EQ(sizeof(serve::ServiceStats),
            8 * serve::kServiceStatsFields.size());
  EXPECT_EQ(sizeof(net::TenantStats), 8 * net::kTenantStatsFields.size());
  EXPECT_EQ(sizeof(net::ServerStats),
            8 * net::kServerStatsFields.size() +
                sizeof(std::vector<net::TenantStats>));
}

}  // namespace
}  // namespace llmp::support
