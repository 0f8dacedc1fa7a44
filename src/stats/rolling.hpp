// Rolling-window order statistics.
//
// RollingQuantile keeps exact order statistics of the last `capacity`
// samples: a sorted shadow of the window maintained by binary-search
// insert/erase (O(n) memmove, ~100 ns at telemetry window sizes, vs
// O(n log n) sort per query). quantile(p) is bit-identical to
// core::percentile over the same window; obs::Histogram keeps one for its
// recent-window percentiles.
//
// Not thread-safe; each owner keeps its own.
#pragma once

#include <cstddef>
#include <vector>

namespace knots::stats {

class RollingQuantile {
 public:
  explicit RollingQuantile(std::size_t capacity);

  /// Adds a sample, evicting the oldest when the window is full.
  void push(double x);

  [[nodiscard]] std::size_t count() const noexcept { return ring_size_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return ring_size_ == 0; }

  /// Type-7 (numpy-default) percentile of the current window, `p` in
  /// [0, 100]. Exactly equal to core::percentile over the same samples;
  /// 0 when the window is empty.
  [[nodiscard]] double quantile(double p) const;

  /// Window extrema; 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// The window in ascending order (the maintained sorted shadow).
  [[nodiscard]] const std::vector<double>& sorted() const noexcept {
    return sorted_;
  }

  void clear() noexcept;

 private:
  std::vector<double> ring_;  ///< Arrival order, for eviction.
  std::size_t head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<double> sorted_;  ///< Ascending shadow of ring_ contents.
};

}  // namespace knots::stats
