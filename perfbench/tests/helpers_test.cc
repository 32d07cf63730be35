// Tests of the load generator's pure helpers: the tail rule and its
// sample count, the per-slice tail and rate medians, the seeded
// schedule, per-layer subtractions, the slow-class guard and the STATS
// readers.
//
//   cmake -S perfbench -B .bench_build/cmake
//   cmake --build .bench_build/cmake --target perfbench_test
//   .bench_build/cmake/perfbench_test

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "helpers.h"

namespace perfbench {
namespace {

TEST(TailRule, LeavesExactlyTenSamplesBeyond) {
  for (size_t n : {11u, 12u, 100u, 1000u, 4999u}) {
    const TailRule rule = TailOf(n);
    EXPECT_EQ(rule.beyond, kTailBeyond) << n;
    EXPECT_EQ(rule.index, n - kTailBeyond - 1) << n;
    EXPECT_DOUBLE_EQ(rule.percentile, 100.0 * (n - kTailBeyond) / n) << n;
  }
  EXPECT_DOUBLE_EQ(TailOf(1000).percentile, 99.0);
  EXPECT_DOUBLE_EQ(TailOf(3000).percentile, 100.0 * 2990 / 3000);
}

TEST(TailRule, SmallSetsFallBackToTheMaximum) {
  const TailRule rule = TailOf(5);
  EXPECT_EQ(rule.index, 4u);
  EXPECT_EQ(rule.beyond, 0u);
  EXPECT_EQ(TailOf(0).beyond, 0u);
}

TEST(Summary, MedianAndTailAreSamples) {
  std::vector<double> samples(200);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..200
  std::reverse(samples.begin(), samples.end());
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 200u);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.tail, 190.0);  // ten samples (191..200) beyond
  EXPECT_EQ(s.tail_beyond, 10u);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 95.0);
}

TEST(ChunkedTail, MedianOfPerChunkTailsAtOneSampleCount) {
  // Three chunks of 20: tails (rank 9 of each) are 10, 1000 and 30.
  std::vector<double> stream;
  for (double scale : {1.0, 100.0, 3.0}) {
    for (int i = 1; i <= 20; ++i) stream.push_back(scale * i);
  }
  stream.push_back(1e9);  // a partial chunk is left out
  const ChunkedTail t = ChunkedTailOf(stream, 20);
  EXPECT_EQ(t.chunk, 20u);
  EXPECT_EQ(t.chunks, 3u);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.tail, 30.0);
  // chunk 0: one chunk of everything.
  const ChunkedTail all = ChunkedTailOf(stream, 0);
  EXPECT_EQ(all.chunks, 1u);
  EXPECT_EQ(all.chunk, stream.size());
}

TEST(SliceRate, MedianIgnoresOneStalledSlice) {
  std::vector<int64_t> done;
  const int64_t second = 1'000'000'000;
  for (int s = 0; s < 5; ++s) {
    const int n = s == 2 ? 10 : 100;  // slice 2 stalled
    for (int i = 0; i < n; ++i) done.push_back(s * second + i * (second / n));
  }
  done.push_back(-1);          // before the window
  done.push_back(6 * second);  // after it
  EXPECT_DOUBLE_EQ(MedianSliceRate(done, 0, second, 5), 100.0);
  EXPECT_DOUBLE_EQ(MedianSliceRate(done, 0, 5 * second, 1), 82.0);
}

TEST(Schedule, IdenticalForASeed) {
  const Schedule a = MakeSchedule(7, 500, 6.0, 6);
  const Schedule b = MakeSchedule(7, 500, 6.0, 6);
  EXPECT_EQ(a.send_s, b.send_s);
  EXPECT_EQ(a.wave_s, b.wave_s);
  const Schedule c = MakeSchedule(8, 500, 6.0, 6);
  EXPECT_NE(a.send_s, c.send_s);
  EXPECT_EQ(a.wave_s, c.wave_s);  // waves sit on fixed slots
}

TEST(Schedule, SendsAreOrderedAndInsideTheWindow) {
  const Schedule s = MakeSchedule(3, 1000, 2.0, 4);
  ASSERT_EQ(s.send_s.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(s.send_s.begin(), s.send_s.end()));
  EXPECT_GT(s.send_s.front(), 0.0);
  EXPECT_LT(s.send_s.back(), 2.0);
  ASSERT_EQ(s.wave_s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.wave_s[0], 0.25);
  EXPECT_DOUBLE_EQ(s.wave_s[3], 1.75);
}

TEST(Remainder, StaysNonNegativeAndBelowTheTotal) {
  EXPECT_DOUBLE_EQ(Remainder(10.0, 4.0), 6.0);
  EXPECT_DOUBLE_EQ(Remainder(10.0, 12.0), 0.0);   // overlapping timings
  EXPECT_DOUBLE_EQ(Remainder(10.0, -1.0), 10.0);  // never above the total
  EXPECT_DOUBLE_EQ(Remainder(0.0, 1.0), 0.0);
  for (double total : {0.01, 0.3, 5.0}) {
    for (double part : {0.0, 0.005, 0.2, 7.0}) {
      const double r = Remainder(total, part);
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, total);
    }
  }
}

TEST(SlowShareGuard, RejectsSharesNearTheTailCut) {
  // p99 tail: cut = 1%. A 1% slow class puts the tail on the edge.
  EXPECT_FALSE(SlowShareClear(0.01, 99.0));
  EXPECT_FALSE(SlowShareClear(0.005, 99.0));
  EXPECT_FALSE(SlowShareClear(0.025, 99.0));
  EXPECT_TRUE(SlowShareClear(0.0, 99.0));
  EXPECT_TRUE(SlowShareClear(0.003, 99.0));
  EXPECT_TRUE(SlowShareClear(0.20, 99.0));
}

TEST(SlowShareGuard, RejectsSharesNearTheMedian) {
  EXPECT_FALSE(SlowShareClear(0.5, 90.0));
  EXPECT_FALSE(SlowShareClear(0.4, 90.0));
  EXPECT_TRUE(SlowShareClear(0.3, 90.0));
  EXPECT_TRUE(SlowShareClear(0.7, 90.0));
}

TEST(StatsJson, ReadsCountersAndHistogramDeltas) {
  const std::string before =
      R"({"server": {"counters": {"server.overloaded": 2}, "histograms": )"
      R"({"server.queue_wait_ms": {"count": 10, "mean": 0.5, "p50": 1}}},)"
      R"( "cache": {"hits": 90, "misses": 10}})";
  const std::string after =
      R"({"server": {"counters": {"server.overloaded": 5}, "histograms": )"
      R"({"server.queue_wait_ms": {"count": 30, "mean": 1.5, "p50": 1}}},)"
      R"( "cache": {"hits": 190, "misses": 20}})";
  EXPECT_EQ(JsonNumber(after, "server.overloaded").value_or(-1), 5.0);
  EXPECT_EQ(JsonNumber(after, "hits", "cache").value_or(-1), 190.0);
  EXPECT_FALSE(JsonNumber(after, "absent").has_value());
  // (30 * 1.5 - 10 * 0.5) / 20 = 2.0
  EXPECT_DOUBLE_EQ(DeltaMean(JsonHistogram(before, "server.queue_wait_ms"),
                             JsonHistogram(after, "server.queue_wait_ms")),
                   2.0);
  EXPECT_DOUBLE_EQ(DeltaMean(JsonHistogram(after, "server.queue_wait_ms"),
                             JsonHistogram(after, "server.queue_wait_ms")),
                   0.0);
}

}  // namespace
}  // namespace perfbench
