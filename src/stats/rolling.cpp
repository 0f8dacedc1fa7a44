#include "stats/rolling.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "core/percentile.hpp"

namespace knots::stats {

RollingQuantile::RollingQuantile(std::size_t capacity) : ring_(capacity) {
  KNOTS_CHECK(capacity > 0);
  sorted_.reserve(capacity);
}

void RollingQuantile::push(double x) {
  if (ring_size_ == ring_.size()) {
    const double evicted = ring_[head_];
    const auto it =
        std::lower_bound(sorted_.begin(), sorted_.end(), evicted);
    KNOTS_CHECK(it != sorted_.end());
    sorted_.erase(it);
  } else {
    ++ring_size_;
  }
  ring_[head_] = x;
  head_ = (head_ + 1) % ring_.size();
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), x), x);
}

double RollingQuantile::quantile(double p) const {
  return sorted_.empty() ? 0.0 : percentile_sorted(sorted_, p);
}

double RollingQuantile::min() const {
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double RollingQuantile::max() const {
  return sorted_.empty() ? 0.0 : sorted_.back();
}

void RollingQuantile::clear() noexcept {
  head_ = ring_size_ = 0;
  sorted_.clear();
}

}  // namespace knots::stats
