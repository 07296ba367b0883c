#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace clktune::util {
namespace {

TEST(SplitMix64Test, DeterministicForSameSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(SplitMix64Test, UniformDoublesInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64Test, NormalMomentsAreStandard) {
  SplitMix64 rng(11);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.next_normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(CounterRngTest, PureFunctionOfCounter) {
  CounterRng rng(99);
  EXPECT_EQ(rng.uniform(5, 7), rng.uniform(5, 7));
  EXPECT_NE(rng.uniform(5, 7), rng.uniform(5, 8));
  EXPECT_EQ(rng.normal(3, 4), rng.normal(3, 4));
}

TEST(CounterRngTest, NormalMomentsAreStandard) {
  CounterRng rng(123);
  OnlineStats stats;
  for (std::uint64_t i = 0; i < 200000; ++i) stats.add(rng.normal(i, 1));
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(CounterRngTest, DistinctStreamsAreUncorrelated) {
  CounterRng rng(5);
  OnlineCorrelation corr;
  for (std::uint64_t i = 0; i < 50000; ++i)
    corr.add(rng.normal(i, 0), rng.normal(i, 1));
  EXPECT_NEAR(corr.correlation(), 0.0, 0.03);
}

TEST(OnlineStatsTest, MatchesClosedForm) {
  OnlineStats s;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_NEAR(s.variance(), 12.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(OnlineStatsTest, MergeEqualsSequential) {
  OnlineStats whole, part1, part2;
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_normal() * 3.0 + 1.0;
    whole.add(x);
    (i < 400 ? part1 : part2).add(x);
  }
  part1.merge(part2);
  EXPECT_EQ(part1.count(), whole.count());
  EXPECT_NEAR(part1.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(part1.variance(), whole.variance(), 1e-8);
}

TEST(OnlineStatsTest, MergeWithEmptySides) {
  OnlineStats empty, filled;
  filled.add(2.0);
  filled.add(4.0);
  OnlineStats a = filled;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  OnlineStats b = empty;
  b.merge(filled);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(OnlineCorrelationTest, PerfectPositiveAndNegative) {
  OnlineCorrelation pos, neg;
  for (int i = 0; i < 50; ++i) {
    pos.add(i, 2.0 * i + 1.0);
    neg.add(i, -0.5 * i + 3.0);
  }
  EXPECT_NEAR(pos.correlation(), 1.0, 1e-9);
  EXPECT_NEAR(neg.correlation(), -1.0, 1e-9);
}

TEST(OnlineCorrelationTest, ConstantSeriesYieldsZero) {
  OnlineCorrelation c;
  for (int i = 0; i < 10; ++i) c.add(5.0, i);
  EXPECT_EQ(c.correlation(), 0.0);
}

TEST(CorrelationMatrixTest, DiagonalIsOneOffDiagonalTracksData) {
  CorrelationMatrix m(3);
  SplitMix64 rng(17);
  for (int k = 0; k < 20000; ++k) {
    const double a = rng.next_normal();
    const double b = 0.9 * a + 0.1 * rng.next_normal();
    const double c = rng.next_normal();
    const double obs[3] = {a, b, c};
    m.add(obs);
  }
  EXPECT_NEAR(m.correlation(0, 0), 1.0, 1e-9);
  EXPECT_GT(m.correlation(0, 1), 0.98);
  EXPECT_NEAR(m.correlation(0, 2), 0.0, 0.05);
  EXPECT_EQ(m.correlation(1, 0), m.correlation(0, 1));
}

TEST(IntHistogramTest, WindowCounting) {
  IntHistogram h;
  h.add(-2, 3);
  h.add(0, 10);
  h.add(1, 5);
  h.add(7, 1);
  EXPECT_EQ(h.count_in_window(-2, 1), 18u);
  EXPECT_EQ(h.count_in_window(0, 0), 10u);
  EXPECT_EQ(h.count_in_window(2, 6), 0u);
  EXPECT_EQ(h.total(), 19u);
}

TEST(IntHistogramTest, BestWindowCoversDenseMass) {
  IntHistogram h;
  h.add(0, 100);
  h.add(1, 80);
  h.add(2, 60);
  h.add(10, 5);
  const int lo = h.best_window_lower_bound(2);
  EXPECT_EQ(lo, 0);  // [0, 2] captures 240 of 245
}

TEST(IntHistogramTest, BestWindowPrefersZeroCoverOnTies) {
  IntHistogram h;
  h.add(0, 5);
  h.add(5, 5);
  // Window width 0: both keys tie at 5; 0-covering window must win.
  EXPECT_EQ(h.best_window_lower_bound(0), 0);
}

TEST(IntHistogramTest, EmptyHistogramCentersOnZero) {
  IntHistogram h;
  EXPECT_EQ(h.best_window_lower_bound(10), -5);
}

TEST(IntHistogramTest, NegativeKeysAndMean) {
  IntHistogram h;
  h.add(-4, 1);
  h.add(4, 1);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min_key(), -4);
  EXPECT_EQ(h.max_key(), 4);
  h.add(4, 2);
  EXPECT_NEAR(h.mean(), 2.0, 1e-12);
}

TEST(IntHistogramTest, MergeAccumulates) {
  IntHistogram a, b;
  a.add(1, 2);
  b.add(1, 3);
  b.add(-1, 1);
  a.merge(b);
  EXPECT_EQ(a.count(1), 5u);
  EXPECT_EQ(a.count(-1), 1u);
}

TEST(ParallelChunksTest, CoversAllIndicesExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  parallel_chunks(n, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelChunksTest, WorksWithMoreWorkersThanItems) {
  std::vector<int> hits(3, 0);
  parallel_chunks(3, 16, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);
}

TEST(ParallelChunksTest, ZeroItemsIsANoop) {
  parallel_chunks(0, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, end);
  });
}

TEST(YieldCiTest, ShrinksWithSamples) {
  EXPECT_GT(yield_ci95(0.5, 100), yield_ci95(0.5, 10000));
  EXPECT_EQ(yield_ci95(0.5, 0), 1.0);
}

TEST(JsonDepthTest, NestingIsCappedWithATypedError) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(kMaxJsonDepth)));
  EXPECT_THROW(Json::parse(nested(kMaxJsonDepth + 1)), JsonError);

  // The `clktune run <file>` path: a 200 000-deep document is a JsonError
  // naming the cap, not a stack overflow.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("clktune_util_test_deep_" + std::to_string(::getpid()) + ".json");
  std::ofstream(path) << std::string(200000, '[');
  try {
    read_json_file(path.string());
    ADD_FAILURE() << "expected a JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace clktune::util
