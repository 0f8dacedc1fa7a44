#include "telemetry/timeseries_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/percentile.hpp"
#include "core/rng.hpp"

namespace knots::telemetry {
namespace {

TEST(TimeSeriesDb, EmptyQueries) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.query_window(GpuId{0}, Metric::kSmUtil, 0).empty());
  EXPECT_TRUE(db.query_all(GpuId{0}, Metric::kSmUtil).empty());
  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kSmUtil, -3.0), -3.0);
  EXPECT_EQ(db.series_count(), 0u);
}

TEST(TimeSeriesDb, WriteAndLatest) {
  TimeSeriesDb db;
  db.write(GpuId{1}, Metric::kPowerWatts, {10, 100.0});
  db.write(GpuId{1}, Metric::kPowerWatts, {20, 150.0});
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kPowerWatts), 150.0);
  EXPECT_EQ(db.total_samples(), 2u);
}

TEST(TimeSeriesDb, SeriesKeyedByGpuAndMetric) {
  TimeSeriesDb db;
  db.write(GpuId{1}, Metric::kSmUtil, {0, 0.5});
  db.write(GpuId{2}, Metric::kSmUtil, {0, 0.9});
  db.write(GpuId{1}, Metric::kMemUtil, {0, 0.2});
  EXPECT_EQ(db.series_count(), 3u);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kSmUtil), 0.5);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{2}, Metric::kSmUtil), 0.9);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kMemUtil), 0.2);
}

TEST(TimeSeriesDb, WindowQueryInclusiveOfSince) {
  TimeSeriesDb db;
  for (SimTime t = 0; t < 10; ++t) {
    db.write(GpuId{0}, Metric::kSmUtil, {t, static_cast<double>(t)});
  }
  const auto window = db.query_window(GpuId{0}, Metric::kSmUtil, 6);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front(), 6.0);
  EXPECT_DOUBLE_EQ(window.back(), 9.0);
}

TEST(TimeSeriesDb, WindowBeforeAllReturnsEverything) {
  TimeSeriesDb db;
  for (SimTime t = 100; t < 105; ++t) {
    db.write(GpuId{0}, Metric::kRxBandwidth, {t, 1.0});
  }
  EXPECT_EQ(db.query_window(GpuId{0}, Metric::kRxBandwidth, 0).size(), 5u);
  EXPECT_TRUE(db.query_window(GpuId{0}, Metric::kRxBandwidth, 1000).empty());
}

TEST(TimeSeriesDb, RetentionDropsOldest) {
  TimeSeriesDb db(/*retention=*/8);
  for (SimTime t = 0; t < 20; ++t) {
    db.write(GpuId{0}, Metric::kSmUtil, {t, static_cast<double>(t)});
  }
  const auto all = db.query_all(GpuId{0}, Metric::kSmUtil);
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front().time, 12);
  EXPECT_EQ(all.back().time, 19);
}

TEST(TimeSeriesDb, WindowViewMatchesQueryWindow) {
  TimeSeriesDb db(/*retention=*/32);  // small retention forces ring wrap
  Rng rng(5);
  for (SimTime t = 0; t < 100; ++t) {
    db.write(GpuId{3}, Metric::kMemUtil, {t, rng.uniform()});
    const SimTime since = t > 10 ? t - 10 : 0;
    const auto vec = db.query_window(GpuId{3}, Metric::kMemUtil, since);
    const auto view = db.window_view(GpuId{3}, Metric::kMemUtil, since);
    ASSERT_EQ(view.size(), vec.size()) << "t=" << t;
    for (std::size_t i = 0; i < vec.size(); ++i) {
      EXPECT_DOUBLE_EQ(view[i].value, vec[i]);
      EXPECT_GE(view[i].time, since);
    }
    std::vector<double> flattened;
    view.append_values_to(flattened);
    EXPECT_EQ(flattened, vec);
  }
}

TEST(TimeSeriesDb, WindowViewEmptyCases) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.window_view(GpuId{0}, Metric::kSmUtil, 0).empty());
  db.write(GpuId{0}, Metric::kSmUtil, {5, 1.0});
  EXPECT_TRUE(db.window_view(GpuId{0}, Metric::kSmUtil, 6).empty());
  EXPECT_EQ(db.window_view(GpuId{0}, Metric::kSmUtil, 5).size(), 1u);
}

TEST(TimeSeriesDb, WindowStatsMatchesNaivePercentiles) {
  TimeSeriesDb db;
  Rng rng(11);
  for (SimTime t = 0; t < 200; ++t) {
    db.write(GpuId{0}, Metric::kSmUtil, {t, rng.uniform(0, 100)});
  }
  const SimTime since = 50;
  const auto agg = db.window_stats(GpuId{0}, Metric::kSmUtil, since);
  const auto window = db.query_window(GpuId{0}, Metric::kSmUtil, since);
  ASSERT_EQ(agg.count, window.size());
  double sum = 0, mn = window[0], mx = window[0];
  for (double v : window) {
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  // Summation order differs (the aggregate sums its sorted scratch), so
  // mean agrees to the 1e-9 equivalence bound, not bit-exactly.
  EXPECT_NEAR(agg.mean, sum / static_cast<double>(window.size()), 1e-9);
  EXPECT_DOUBLE_EQ(agg.min, mn);
  EXPECT_DOUBLE_EQ(agg.max, mx);
  EXPECT_DOUBLE_EQ(agg.p50, percentile(window, 50));
  EXPECT_DOUBLE_EQ(agg.p95, percentile(window, 95));
  EXPECT_DOUBLE_EQ(agg.p99, percentile(window, 99));
}

TEST(TimeSeriesDb, WindowStatsCacheInvalidatedByWrite) {
  TimeSeriesDb db;
  for (SimTime t = 0; t < 10; ++t) {
    db.write(GpuId{0}, Metric::kSmUtil, {t, 1.0});
  }
  const auto gen0 = db.generation(GpuId{0}, Metric::kSmUtil);
  const auto& a = db.window_stats(GpuId{0}, Metric::kSmUtil, 0);
  EXPECT_DOUBLE_EQ(a.max, 1.0);
  // Repeat query with no intervening write: same cached aggregate object.
  const auto* cached = &db.window_stats(GpuId{0}, Metric::kSmUtil, 0);
  EXPECT_EQ(cached, &a);
  EXPECT_EQ(db.generation(GpuId{0}, Metric::kSmUtil), gen0);
  // A write must invalidate: the next query sees the new sample.
  db.write(GpuId{0}, Metric::kSmUtil, {10, 9.0});
  EXPECT_GT(db.generation(GpuId{0}, Metric::kSmUtil), gen0);
  EXPECT_DOUBLE_EQ(db.window_stats(GpuId{0}, Metric::kSmUtil, 0).max, 9.0);
  // Changing `since` must also bypass the cache.
  EXPECT_EQ(db.window_stats(GpuId{0}, Metric::kSmUtil, 10).count, 1u);
}

// The old KeyHash packed the metric into the low 8 bits of (gpu << 8),
// colliding whole series once metric ids or gpu counts grew. The splitmix64
// mix must keep every (gpu, metric) key distinct and well spread.
TEST(TimeSeriesDbKeyHash, NoCollisionsOverGpuMetricGrid) {
  TimeSeriesDb::KeyHash hash;
  std::unordered_set<std::size_t> seen;
  std::size_t keys = 0;
  for (std::int32_t gpu = 0; gpu < 512; ++gpu) {
    for (int metric = 0; metric < 512; metric += 37) {
      seen.insert(hash(TimeSeriesDb::Key{gpu, metric}));
      ++keys;
    }
  }
  // splitmix64 is a bijection on the packed 64-bit key, so any collision
  // here would have to come from the size_t truncation — none expected.
  EXPECT_EQ(seen.size(), keys);
}

TEST(TimeSeriesDbKeyHash, LargeMetricIdsDoNotAliasAcrossGpus) {
  // Regression for the (gpu << 8) | metric scheme: metric id 256 on gpu g
  // collided with metric id 0 on gpu g+1.
  TimeSeriesDb::KeyHash hash;
  EXPECT_NE(hash(TimeSeriesDb::Key{0, 256}), hash(TimeSeriesDb::Key{1, 0}));
  EXPECT_NE(hash(TimeSeriesDb::Key{0, 257}), hash(TimeSeriesDb::Key{1, 1}));
}

TEST(MetricNames, AllDistinct) {
  for (auto a : kAllMetrics) {
    for (auto b : kAllMetrics) {
      if (a != b) EXPECT_NE(metric_name(a), metric_name(b));
    }
  }
  EXPECT_EQ(metric_name(Metric::kSmUtil), "sm_util");
  EXPECT_EQ(kAllMetrics.size(), 5u);  // the five §IV-A metrics
}

}  // namespace
}  // namespace knots::telemetry
