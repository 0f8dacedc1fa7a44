// Heartbeat sampler — the pyNVML surrogate.
//
// At every heartbeat it reads each GPU of its node and writes the recorded
// metric to the node-local TimeSeriesDb. Real NVML counters quantize and
// jitter; `noise_sigma` models that measurement noise, which is what makes
// sub-millisecond heartbeats *hurt* prediction accuracy (Fig 10b).
//
// Knots samples five metrics per GPU (§IV-A), and the noise stream keeps
// drawing for all five in the order sm, mem, power, tx, rx, so the per-node
// RNG stays where five noisy reads would leave it. Only kRecordedMetric is
// transformed and written; the other four draws are skipped
// (Rng::skip_normal) and their series are never opened.
#pragma once

#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "gpu/gpu_node.hpp"
#include "telemetry/timeseries_db.hpp"

namespace knots::telemetry {

/// The one metric a heartbeat records: memory utilization gives the
/// free-memory sort key and Peak Prediction's lookback window. No policy
/// reads the other four.
inline constexpr Metric kRecordedMetric = Metric::kMemUtil;

class HeartbeatSampler {
 public:
  HeartbeatSampler(const gpu::GpuNode& node, TimeSeriesDb& db,
                   Rng rng, double noise_sigma = 0.01)
      : node_(&node), db_(&db), rng_(rng), noise_sigma_(noise_sigma) {
    // Open every series this sampler will ever write once up front; the
    // per-heartbeat writes then go through stable handles instead of a
    // hash lookup per GPU — the dominant cost at 1k+ nodes.
    series_.reserve(node.gpu_count());
    for (std::size_t i = 0; i < node.gpu_count(); ++i) {
      series_.push_back(db.open_series(node.gpu(i).id(), kRecordedMetric));
    }
  }

  /// Samples all GPUs of the node once at time `now`.
  void sample(SimTime now);

  [[nodiscard]] double noise_sigma() const noexcept { return noise_sigma_; }

 private:
  /// Consumes the noise draws of `n` unrecorded metrics.
  void skip_jitter(int n);

  const gpu::GpuNode* node_;
  TimeSeriesDb* db_;
  Rng rng_;
  double noise_sigma_;
  /// Pre-opened kRecordedMetric handle per GPU.
  std::vector<TimeSeriesDb::SeriesHandle> series_;
};

}  // namespace knots::telemetry
