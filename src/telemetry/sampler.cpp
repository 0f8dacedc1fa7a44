#include "telemetry/sampler.hpp"

#include <algorithm>

namespace knots::telemetry {

void HeartbeatSampler::skip_jitter(int n) {
  if (noise_sigma_ <= 0.0) return;
  for (int k = 0; k < n; ++k) rng_.skip_normal();
}

void HeartbeatSampler::sample(SimTime now) {
  static_assert(kRecordedMetric == Metric::kMemUtil,
                "sample() draws noise in the order sm, mem, power, tx, rx");
  for (std::size_t i = 0; i < node_->gpu_count(); ++i) {
    const auto& dev = node_->gpu(i);
    // Warm the write slot so the ring miss overlaps the noise math below.
    db_->prefetch_write(series_[i]);
    skip_jitter(1);  // sm
    double mem = dev.totals().memory_used_mb / dev.spec().memory_mb;
    if (noise_sigma_ > 0.0) {
      mem = std::max(0.0, mem + rng_.normal(0.0, noise_sigma_));
    }
    skip_jitter(3);  // power, tx, rx
    db_->write(series_[i], {now, std::clamp(mem, 0.0, 1.0)});
  }
}

}  // namespace knots::telemetry
