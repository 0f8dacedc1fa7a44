#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace knots::telemetry {
namespace {

TEST(Sampler, NoiselessSamplesMatchDeviceState) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 2;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 1000));
  EXPECT_TRUE(node.gpu(0).set_usage(PodId{1}, {0.6, 4096, 1000, 250}));

  TimeSeriesDb db;
  HeartbeatSampler sampler(node, db, Rng(1), /*noise_sigma=*/0.0);
  sampler.sample(500);

  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kMemUtil),
                   4096.0 / spec.gpu.memory_mb);
  EXPECT_EQ(db.latest_time(GpuId{0}, Metric::kMemUtil), 500);
  // Idle second GPU sampled too.
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kMemUtil), 0.0);
  EXPECT_EQ(db.latest_time(GpuId{1}, Metric::kMemUtil), 500);
  // The unrecorded metrics never get a series.
  for (const Metric m : {Metric::kSmUtil, Metric::kPowerWatts,
                         Metric::kTxBandwidth, Metric::kRxBandwidth}) {
    EXPECT_FALSE(db.find_series(GpuId{0}, m)) << metric_name(m);
  }
}

TEST(Sampler, RecordsOnlyMemUtilPerGpu) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 3;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  TimeSeriesDb db;
  HeartbeatSampler sampler(node, db, Rng(1), 0.0);
  // Series are opened up front, one per GPU.
  EXPECT_EQ(db.series_count(), 3u);
  sampler.sample(0);
  EXPECT_EQ(db.series_count(), 3u);
  EXPECT_EQ(db.total_samples(), 3u);
  sampler.sample(1);
  EXPECT_EQ(db.total_samples(), 6u);
  for (std::int32_t g = 0; g < 3; ++g) {
    EXPECT_TRUE(db.find_series(GpuId{g}, kRecordedMetric));
    EXPECT_FALSE(db.find_series(GpuId{g}, Metric::kSmUtil));
  }
}

TEST(Sampler, NoiseStaysBoundedAndNonNegative) {
  gpu::NodeSpec spec;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(node.gpu(0).set_usage(PodId{1}, {0.5, 8192, 0, 0}));
  TimeSeriesDb db;
  HeartbeatSampler sampler(node, db, Rng(7), /*noise_sigma=*/0.05);
  for (SimTime t = 0; t < 200; ++t) sampler.sample(t);
  for (const auto& s : db.query_all(GpuId{0}, Metric::kMemUtil)) {
    EXPECT_GE(s.value, 0.0);
    EXPECT_LE(s.value, 1.0);
    EXPECT_NEAR(s.value, 0.5, 0.4);
  }
}

TEST(Sampler, NoisyMeanTracksTruth) {
  gpu::NodeSpec spec;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(
      node.gpu(0).set_usage(PodId{1}, {0.4, 0.4 * spec.gpu.memory_mb, 0, 0}));
  TimeSeriesDb db;
  HeartbeatSampler sampler(node, db, Rng(11), 0.02);
  for (SimTime t = 0; t < 2000; ++t) sampler.sample(t);
  double sum = 0;
  const auto all = db.query_all(GpuId{0}, Metric::kMemUtil);
  for (const auto& s : all) sum += s.value;
  EXPECT_NEAR(sum / static_cast<double>(all.size()), 0.4, 0.01);
}

// Differential check against the five-metric sampler: a reference that
// jitters sm, mem, power, tx and rx with five full normal() calls per GPU
// must record the exact same mem series as the sampler, which transforms
// only mem and skips the other four draws. Usage moves every heartbeat and
// spans the clamp edges (empty and full memory), so any draw the sampler
// consumed differently would surface as a mismatch within a few beats.
TEST(Sampler, MemSeriesMatchesFiveDrawReference) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 3;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  for (std::int32_t g = 0; g < 3; ++g) {
    ASSERT_TRUE(node.gpu(static_cast<std::size_t>(g))
                    .attach(PodId{g + 1}, spec.gpu.memory_mb));
  }
  constexpr double kSigma = 0.05;
  constexpr std::uint64_t kSeed = 2024;
  TimeSeriesDb db(/*retention=*/4096);
  HeartbeatSampler sampler(node, db, Rng(kSeed), kSigma);
  Rng reference(kSeed);
  const auto jitter = [&](double value, double scale) {
    return std::max(0.0, value + reference.normal(0.0, kSigma * scale));
  };
  Rng usage(99);
  for (SimTime t = 0; t < 1500; ++t) {
    for (std::int32_t g = 0; g < 3; ++g) {
      const double mem = usage.chance(0.1) ? 0.0
                         : usage.chance(0.1)
                             ? spec.gpu.memory_mb
                             : usage.uniform(0.0, spec.gpu.memory_mb);
      (void)node.gpu(static_cast<std::size_t>(g))
          .set_usage(PodId{g + 1},
                     {usage.uniform(), mem, usage.uniform(0.0, 4000.0),
                      usage.uniform(0.0, 4000.0)});
    }
    sampler.sample(t);
    for (std::size_t i = 0; i < node.gpu_count(); ++i) {
      const auto& dev = node.gpu(i);
      const auto totals = dev.totals();
      (void)jitter(totals.sm_util, 1.0);
      const double mem = std::clamp(
          jitter(totals.memory_used_mb / dev.spec().memory_mb, 1.0), 0.0,
          1.0);
      (void)jitter(dev.power_watts(), 10.0);
      (void)jitter(totals.tx_mbps, 100.0);
      (void)jitter(totals.rx_mbps, 100.0);
      ASSERT_EQ(db.latest(dev.id(), Metric::kMemUtil), mem)
          << "gpu " << i << " heartbeat " << t;
    }
  }
  EXPECT_EQ(db.series_count(), 3u);
  EXPECT_EQ(db.total_samples(), 3u * 1500u);
}

}  // namespace
}  // namespace knots::telemetry
