#include "telemetry/aggregator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "telemetry/sampler.hpp"

namespace knots::telemetry {
namespace {

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest() {
    gpu::NodeSpec spec;
    spec.gpus_per_node = 1;
    for (int n = 0; n < 3; ++n) {
      nodes_.push_back(std::make_unique<gpu::GpuNode>(NodeId{n}, spec, n));
      dbs_.push_back(std::make_unique<TimeSeriesDb>());
      agg_.register_node(*nodes_[static_cast<std::size_t>(n)],
                         *dbs_[static_cast<std::size_t>(n)]);
    }
  }

  void sample_all(SimTime now) {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      HeartbeatSampler s(*nodes_[n], *dbs_[n], Rng(n + 1), 0.0);
      s.sample(now);
    }
  }

  std::vector<std::unique_ptr<gpu::GpuNode>> nodes_;
  std::vector<std::unique_ptr<TimeSeriesDb>> dbs_;
  UtilizationAggregator agg_;
};

TEST_F(AggregatorTest, SnapshotCoversAllGpus) {
  sample_all(0);
  const auto snap = agg_.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(agg_.node_count(), 3u);
  for (const auto& v : snap) {
    EXPECT_DOUBLE_EQ(v.mem_util, 0.0);
    EXPECT_FALSE(v.parked);
  }
}

TEST_F(AggregatorTest, SnapshotReflectsTelemetry) {
  ASSERT_TRUE(nodes_[1]->gpu(0).attach(PodId{1}, 1000));
  EXPECT_TRUE(nodes_[1]->gpu(0).set_usage(PodId{1}, {0.7, 8192, 0, 0}));
  sample_all(5);
  const auto snap = agg_.snapshot();
  EXPECT_DOUBLE_EQ(snap[1].mem_util,
                   8192 / nodes_[1]->gpu(0).spec().memory_mb);
  EXPECT_EQ(snap[1].last_heartbeat, 5);
  EXPECT_NEAR(snap[1].mem_used_mb, 8192, 1e-6);
  EXPECT_NEAR(snap[1].free_mem_mb,
              nodes_[1]->gpu(0).spec().memory_mb - 8192, 1e-6);
  EXPECT_EQ(snap[1].residents, 1);
}

TEST_F(AggregatorTest, ActiveSortedByFreeMemoryDescending) {
  ASSERT_TRUE(nodes_[0]->gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(nodes_[0]->gpu(0).set_usage(PodId{1}, {0.1, 12000, 0, 0}));
  ASSERT_TRUE(nodes_[2]->gpu(0).attach(PodId{2}, 100));
  EXPECT_TRUE(nodes_[2]->gpu(0).set_usage(PodId{2}, {0.1, 4000, 0, 0}));
  sample_all(9);
  const auto sorted = agg_.active_sorted_by_free_memory();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].node.value, 1);  // empty node has most free memory
  EXPECT_EQ(sorted[1].node.value, 2);
  EXPECT_EQ(sorted[2].node.value, 0);
}

TEST_F(AggregatorTest, ParkedGpusExcludedFromActiveList) {
  nodes_[0]->gpu(0).set_parked(true);
  sample_all(1);
  const auto sorted = agg_.active_sorted_by_free_memory();
  EXPECT_EQ(sorted.size(), 2u);
  for (const auto& v : sorted) EXPECT_NE(v.node.value, 0);
  // But the raw snapshot still shows it, flagged.
  EXPECT_TRUE(agg_.snapshot()[0].parked);
}

TEST_F(AggregatorTest, WindowedSeriesQuery) {
  for (SimTime t = 0; t <= 100; t += 10) sample_all(t);
  const auto window =
      agg_.window(GpuId{1}, Metric::kMemUtil, /*now=*/100, /*window=*/35);
  EXPECT_EQ(window.size(), 4u);  // t = 70, 80, 90, 100
  EXPECT_TRUE(agg_.window(GpuId{99}, Metric::kMemUtil, 100, 35).empty());
}

TEST_F(AggregatorTest, WindowIntoAndViewMatchAllocatingWindow) {
  for (SimTime t = 0; t <= 100; t += 10) sample_all(t);
  const auto expect =
      agg_.window(GpuId{1}, Metric::kMemUtil, /*now=*/100, /*window=*/35);

  std::vector<double> scratch = {99.0, 98.0};  // must be cleared, not appended
  agg_.window_into(GpuId{1}, Metric::kMemUtil, 100, 35, scratch);
  EXPECT_EQ(scratch, expect);

  const auto view = agg_.window_view(GpuId{1}, Metric::kMemUtil, 100, 35);
  ASSERT_EQ(view.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_DOUBLE_EQ(view[i].value, expect[i]);
  }

  agg_.window_into(GpuId{99}, Metric::kMemUtil, 100, 35, scratch);
  EXPECT_TRUE(scratch.empty());
  EXPECT_TRUE(agg_.window_view(GpuId{99}, Metric::kMemUtil, 100, 35).empty());
}

TEST_F(AggregatorTest, WindowStatsForUnknownGpuIsZeroCount) {
  sample_all(0);
  EXPECT_EQ(agg_.window_stats(GpuId{99}, Metric::kMemUtil, 100, 35).count, 0u);
  EXPECT_GT(agg_.window_stats(GpuId{1}, Metric::kMemUtil, 0, 35).count, 0u);
}

TEST_F(AggregatorTest, WindowQueryOnUnrecordedMetricDies) {
  for (SimTime t = 0; t <= 100; t += 10) sample_all(t);
  // The heartbeat records mem_util only; a window over anything else would
  // be silently empty, so every window entry point refuses it — even for a
  // GPU the aggregator does not know.
  EXPECT_DEATH((void)agg_.window(GpuId{1}, Metric::kSmUtil, 100, 35),
               "does not record");
  EXPECT_DEATH((void)agg_.window_view(GpuId{99}, Metric::kPowerWatts, 100, 35),
               "does not record");
  std::vector<double> scratch;
  EXPECT_DEATH(
      agg_.window_into(GpuId{0}, Metric::kTxBandwidth, 100, 35, scratch),
      "does not record");
  EXPECT_DEATH(
      (void)agg_.window_stats(GpuId{2}, Metric::kRxBandwidth, 100, 35),
      "does not record");
}

TEST_F(AggregatorTest, SnapshotIntoReusesBuffer) {
  sample_all(0);
  std::vector<GpuView> out;
  agg_.snapshot_into(out);
  EXPECT_EQ(out, agg_.snapshot());
  const auto* data = out.data();
  agg_.snapshot_into(out);  // warmed buffer: no reallocation
  EXPECT_EQ(out.data(), data);
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(AggregatorTest, ActiveSortedCacheStableAcrossRepeatedCalls) {
  sample_all(0);
  const auto& first = agg_.active_sorted_by_free_memory();
  const auto snapshot_before = first;
  // No telemetry change between calls: the cached list is returned as-is.
  const auto& second = agg_.active_sorted_by_free_memory();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second, snapshot_before);
}

TEST_F(AggregatorTest, ActiveSortedCacheReactsToTelemetryWrites) {
  sample_all(0);
  auto before = agg_.active_sorted_by_free_memory();
  // Node 0's GPU fills up; after the next heartbeat it must sort last.
  ASSERT_TRUE(nodes_[0]->gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(nodes_[0]->gpu(0).set_usage(PodId{1}, {0.5, 15000, 0, 0}));
  sample_all(10);
  const auto& after = agg_.active_sorted_by_free_memory();
  EXPECT_NE(after, before);
  EXPECT_EQ(after.back().node.value, 0);
}

TEST_F(AggregatorTest, ActiveSortedCacheReactsToParkFlip) {
  sample_all(0);
  EXPECT_EQ(agg_.active_sorted_by_free_memory().size(), 3u);
  // Parking is visible in the node object immediately — no heartbeat
  // between the two calls, mirroring a scheduler parking mid-tick.
  nodes_[1]->gpu(0).set_parked(true);
  EXPECT_EQ(agg_.active_sorted_by_free_memory().size(), 2u);
  nodes_[1]->gpu(0).set_parked(false);
  EXPECT_EQ(agg_.active_sorted_by_free_memory().size(), 3u);
}

}  // namespace
}  // namespace knots::telemetry
